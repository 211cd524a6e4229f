package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"alid/internal/vec"
)

// twoBlobs returns two tight clusters far apart plus the cluster assignment.
func twoBlobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	label := make([]int, n)
	for i := range pts {
		c := i % 2
		base := float64(c) * 50
		pts[i] = []float64{base + rng.NormFloat64()*0.3, base + rng.NormFloat64()*0.3}
		label[i] = c
	}
	return pts, label
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Projections: 0, Tables: 4, R: 1},
		{Projections: 4, Tables: 0, R: 1},
		{Projections: 4, Tables: 4, R: 0},
		{Projections: 4, Tables: 4, R: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := Build([][]float64{{1, 2}, {1}}, DefaultConfig()); err == nil {
		t.Error("expected error for ragged dataset")
	}
	if _, err := Build([][]float64{{1}}, Config{}); err == nil {
		t.Error("expected error for zero config")
	}
}

func TestDeterministicBuild(t *testing.T) {
	pts, _ := twoBlobs(40, 5)
	cfg := Config{Projections: 6, Tables: 4, R: 2, Seed: 42}
	a, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(pts); id += 7 {
		ca, cb := a.CandidatesByID(id), b.CandidatesByID(id)
		if len(ca) != len(cb) {
			t.Fatalf("nondeterministic candidates for %d: %d vs %d", id, len(ca), len(cb))
		}
	}
}

func TestNearPointsCollide(t *testing.T) {
	pts, label := twoBlobs(200, 7)
	idx, err := Build(pts, Config{Projections: 8, Tables: 10, R: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Points in the same tight blob should be retrieved with high recall;
	// points in the other blob (50 units away, r=4) should essentially never be.
	sameHit, sameTotal, crossHit := 0, 0, 0
	for id := 0; id < 40; id++ {
		cands := idx.CandidatesByID(id)
		got := make(map[int32]bool, len(cands))
		for _, c := range cands {
			got[c] = true
			if label[c] != label[id] {
				crossHit++
			}
		}
		for j := range pts {
			if j != id && label[j] == label[id] {
				sameTotal++
				if got[int32(j)] {
					sameHit++
				}
			}
		}
	}
	recall := float64(sameHit) / float64(sameTotal)
	if recall < 0.9 {
		t.Errorf("same-cluster recall = %.3f, want ≥ 0.9", recall)
	}
	if crossHit > 0 {
		t.Errorf("cross-cluster collisions = %d, want 0", crossHit)
	}
}

func TestQueryMatchesCandidatesByID(t *testing.T) {
	pts, _ := twoBlobs(100, 11)
	idx, err := Build(pts, Config{Projections: 6, Tables: 6, R: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 20; id++ {
		byID := toSet(idx.CandidatesByID(id))
		byVec := toSet(idx.Query(pts[id]))
		delete(byVec, int32(id)) // Query includes the point itself
		if len(byID) != len(byVec) {
			t.Fatalf("id %d: CandidatesByID=%d Query=%d", id, len(byID), len(byVec))
		}
		for k := range byID {
			if _, ok := byVec[k]; !ok {
				t.Fatalf("id %d: candidate %d missing from Query", id, k)
			}
		}
	}
}

func TestCandidatesByIDInto(t *testing.T) {
	pts, _ := twoBlobs(120, 13)
	idx, err := Build(pts, Config{Projections: 6, Tables: 6, R: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]uint32, len(pts))
	for gen := uint32(1); gen <= 5; gen++ {
		id := int(gen) * 3
		got := idx.CandidatesByIDsInto([]int{id}, nil, mark, gen, nil)
		if want := idx.CandidatesByID(id); !slices.Equal(got, want) {
			t.Fatalf("gen %d: one-id read %v, CandidatesByID %v", gen, got, want)
		}
	}
}

func TestNeighborListsCap(t *testing.T) {
	pts, _ := twoBlobs(60, 17)
	idx, err := Build(pts, Config{Projections: 4, Tables: 8, R: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lists := idx.NeighborLists(5)
	if len(lists) != len(pts) {
		t.Fatalf("lists = %d, want %d", len(lists), len(pts))
	}
	for i, l := range lists {
		if len(l) > 5 {
			t.Fatalf("list %d has %d entries, cap 5", i, len(l))
		}
		for _, j := range l {
			if j == i {
				t.Fatalf("list %d contains self", i)
			}
		}
	}
}

func TestBucketsMinSize(t *testing.T) {
	pts, _ := twoBlobs(100, 19)
	idx, err := Build(pts, Config{Projections: 6, Tables: 4, R: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range idx.Buckets(5) {
		if len(b) <= 5 {
			t.Fatalf("bucket of size %d returned with minSize 5", len(b))
		}
	}
}

func TestStats(t *testing.T) {
	pts, _ := twoBlobs(100, 23)
	idx, err := Build(pts, Config{Projections: 6, Tables: 4, R: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := idx.Stats()
	if s.Tables != 4 || s.Buckets == 0 || s.MaxBucketSize == 0 || s.MeanBucketSize <= 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

// Recall must increase with the segment length r — this is the mechanism the
// Fig. 6 sparsity experiments rely on.
func TestRecallIncreasesWithR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 150
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	recallAt := func(r float64) float64 {
		idx, err := Build(pts, Config{Projections: 4, Tables: 6, R: r, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// recall of true 10-NN
		hits, total := 0, 0
		for id := 0; id < 30; id++ {
			got := toSet(idx.CandidatesByID(id))
			nn := kNearest(pts, id, 10)
			for _, j := range nn {
				total++
				if _, ok := got[int32(j)]; ok {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	lo, hi := recallAt(0.25), recallAt(4.0)
	if !(hi > lo) {
		t.Errorf("recall did not increase with r: r=0.25 → %.3f, r=4 → %.3f", lo, hi)
	}
	if hi < 0.8 {
		t.Errorf("recall at large r = %.3f, want ≥ 0.8", hi)
	}
}

func toSet(ids []int32) map[int32]struct{} {
	m := make(map[int32]struct{}, len(ids))
	for _, id := range ids {
		m[id] = struct{}{}
	}
	return m
}

func kNearest(pts [][]float64, id, k int) []int {
	type dp struct {
		d float64
		j int
	}
	var ds []dp
	for j := range pts {
		if j == id {
			continue
		}
		ds = append(ds, dp{vec.L2(pts[id], pts[j]), j})
	}
	for i := 0; i < k && i < len(ds); i++ {
		best := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j].d < ds[best].d {
				best = j
			}
		}
		ds[i], ds[best] = ds[best], ds[i]
	}
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(ds); i++ {
		out = append(out, ds[i].j)
	}
	return out
}

func TestFoldDistinguishesSignatures(t *testing.T) {
	a := fold([]int64{1, 2, 3})
	b := fold([]int64{1, 2, 4})
	c := fold([]int64{3, 2, 1})
	if a == b || a == c || b == c {
		t.Fatalf("fold collisions: %v %v %v", a, b, c)
	}
	if fold([]int64{-1}) == fold([]int64{1}) {
		t.Fatal("fold ignores sign")
	}
}

func TestQueryDimensionPanics(t *testing.T) {
	pts, _ := twoBlobs(10, 37)
	idx, err := Build(pts, Config{Projections: 2, Tables: 2, R: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong query dimension")
		}
	}()
	idx.Query([]float64{1, 2, 3})
}

func TestHashBoundaryStability(t *testing.T) {
	// floor((a·v+b)/r) must be finite and stable for large coordinates.
	pts := [][]float64{{1e8, -1e8}, {1e8, -1e8}}
	idx, err := Build(pts, Config{Projections: 4, Tables: 2, R: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := idx.CandidatesByID(0)
	if len(c) != 1 || c[0] != 1 {
		t.Fatalf("identical points must collide, got %v", c)
	}
	_ = math.Inf(1)
}
