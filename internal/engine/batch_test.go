package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/testutil"
	"alid/internal/vec"
)

// assignFixture is one engine with the queries a crosscheck sends it.
type assignFixture struct {
	name string
	e    *Engine
	qs   [][]float64
}

// mixedQueries builds the standard crosscheck query mix: jittered dataset
// points, near-origin noise, and uniform sweep points (many of which miss
// every LSH bucket).
func mixedQueries(pts [][]float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		switch i % 3 {
		case 0:
			src := pts[rng.Intn(len(pts))]
			qs[i] = []float64{src[0] + rng.NormFloat64()*0.2, src[1] + rng.NormFloat64()*0.2}
		case 1:
			qs[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		default:
			qs[i] = []float64{rng.Float64()*50 - 15, rng.Float64()*50 - 15}
		}
	}
	return qs
}

// nearTieQueries returns n points on (and a hair off) the perpendicular
// bisector of the blob centers (0,0) and (12,12), where the two clusters'
// scores nearly coincide.
func nearTieQueries(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		s := rng.Float64()*24 - 6
		qs[i] = []float64{6 + s + rng.NormFloat64()*1e-9, 6 - s}
	}
	return qs
}

// exactTieFixture restores two mirrored clusters whose scores tie bit for
// bit at every point of the diagonal: cluster 0 holds (a_i, b_i), cluster 1
// holds (b_i, a_i), in the same member order with the same weights, and a
// 2-D distance sums the same two terms for either. Point 0 belongs to
// cluster 1 and a segment length of 1000 co-buckets all four points, so
// cluster 1, not index 0, is every query's first-seen candidate. It checks
// both facts and that the full-scan reference answers cluster 1 for each
// diagonal query it returns.
func exactTieFixture(t *testing.T) assignFixture {
	t.Helper()
	m, err := matrix.FromRows([][]float64{{3, 1}, {5, 2}, {1, 3}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig()
	cfg.Core.LSH = lsh.Config{Projections: 4, Tables: 2, R: 1000, Seed: 1}
	idx, err := lsh.BuildMatrix(m, cfg.Core.LSH)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.6, 0.4}
	clusters := []*core.Cluster{
		{Members: []int{2, 3}, Weights: w, Density: 0.7, Seed: 2},
		{Members: []int{0, 1}, Weights: w, Density: 0.7, Seed: 0},
	}
	e, err := RestoreGeneration(cfg, m, idx, clusters, []int{1, 1, 0, 0}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := affinity.NewOracleMatrix(m, cfg.Core.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	full := fullScanOracle(t, e)
	var qs [][]float64
	for x := -1.0; x <= 7; x += 0.25 {
		q := []float64{x, x}
		cands := idx.QueryInto(q, make([]int64, idx.SigLen()), nil, make([]uint32, idx.N()), 1)
		if len(cands) != 4 || cands[0] != 0 {
			t.Fatalf("query %v: candidates %v, want all four points, point 0 first", q, cands)
		}
		if s0, s1 := refScore(o, q, clusters[0]), refScore(o, q, clusters[1]); s0 != s1 {
			t.Fatalf("query %v: mirrored scores %v and %v do not tie", q, s0, s1)
		}
		if c, _ := full(q); c != 1 {
			t.Fatalf("query %v: full scan answers cluster %d, want the first-seen 1", q, c)
		}
		qs = append(qs, q)
	}
	return assignFixture{"exact-tie", e, qs}
}

// requireLargeCluster fails the test unless some published cluster has more
// than 64 members, so the crosschecks cover large supports.
func requireLargeCluster(t *testing.T, e *Engine) {
	t.Helper()
	for _, cl := range e.Clusters() {
		if len(cl.Members) > 64 {
			return
		}
	}
	t.Fatal("no cluster has more than 64 members")
}

// fullScanOracle is the independent reference both assign paths must match:
// every cluster owning an LSH candidate of q, in first-seen order, scored
// over its full support (ColumnPoint plus a member-order weighted sum), the
// first strict maximum winning.
func fullScanOracle(t *testing.T, e *Engine) func(q []float64) (int, float64) {
	t.Helper()
	v := e.View()
	o, err := affinity.NewOracleMatrix(v.Mat, e.Config().Core.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return func(q []float64) (int, float64) {
		seen := make(map[int]bool)
		best, bestScore := -1, math.Inf(-1)
		cands := v.Index.QueryInto(q, make([]int64, v.Index.SigLen()), nil, make([]uint32, v.Index.N()), 1)
		for _, id := range cands {
			ci := v.Labels.At(int(id))
			if ci < 0 || seen[ci] {
				continue
			}
			seen[ci] = true
			if s := refScore(o, q, v.Clusters[ci]); s > bestScore {
				best, bestScore = ci, s
			}
		}
		return best, bestScore
	}
}

// refScore is g(q, x) for cluster cl: ColumnPoint over its full support,
// then a member-order weighted sum.
func refScore(o *affinity.Oracle, q []float64, cl *core.Cluster) float64 {
	col := make([]float64, len(cl.Members))
	o.ColumnPoint(q, vec.Dot(q, q), cl.Members, col)
	var s float64
	for t, w := range cl.Weights {
		s += w * col[t]
	}
	return s
}

// sameAnswer reports whether a batch assignment matches a sequential one on
// every semantic field. Candidates is deliberately excluded: the batch
// pipeline counts candidate clusters, the single-point path counts
// deduplicated candidate points (see batch.go).
func sameAnswer(a, b Assignment) bool {
	return a.Cluster == b.Cluster && a.Score == b.Score &&
		a.Density == b.Density && a.Infective == b.Infective
}

// AssignBatch must be bit-identical to sequential Assign calls — winner,
// score, density and infectivity, in order — on the same published state,
// across batch sizes, on clusters larger than 64 members. Across batch sizes
// the results must agree on every field, Candidates included.
func TestAssignBatchMatchesSequential(t *testing.T) {
	pts, _ := testutil.Blobs(53, [][]float64{{0, 0}, {12, 12}}, 250, 0.05, 40, -20, 25)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	requireLargeCluster(t, e)

	queries := mixedQueries(pts, 300, 54)
	want := make([]Assignment, len(queries))
	for i, q := range queries {
		a, err := e.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	// Reference batch answers (size 1): later widths must reproduce these
	// exactly, Candidates included.
	ref := make([]Assignment, len(queries))
	for i := range queries {
		got, err := e.AssignBatch(queries[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(got[0], want[i]) {
			t.Fatalf("batch-of-1 query %d: %+v, sequential %+v", i, got[0], want[i])
		}
		ref[i] = got[0]
	}

	for _, bsz := range []int{2, 7, 16, 64, len(queries)} {
		for off := 0; off+bsz <= len(queries); off += bsz {
			got, err := e.AssignBatch(queries[off : off+bsz])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != bsz {
				t.Fatalf("batch %d@%d returned %d results", bsz, off, len(got))
			}
			for k, a := range got {
				if a != ref[off+k] {
					t.Fatalf("batch %d query %d: %+v, batch-of-1 %+v", bsz, off+k, a, ref[off+k])
				}
			}
		}
	}
}

// AssignBatch must answer exactly the full-scan reference, winners and
// score bits, as one batch and one query at a time: on random queries, on
// adversarial near-tie queries on the symmetry axis between two mirrored
// blobs, and on exact ties, which go to the first-seen candidate.
func TestAssignBatchMatchesExact(t *testing.T) {
	pts, _ := testutil.Blobs(57, [][]float64{{0, 0}, {12, 12}}, 220, 0.05, 30, -15, 22)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	requireLargeCluster(t, e)
	tie := exactTieFixture(t)
	defer tie.e.Close()

	for _, fx := range []assignFixture{
		{"blobs", e, append(mixedQueries(pts, 120, 58), nearTieQueries(60, 59)...)},
		tie,
	} {
		t.Run(fx.name, func(t *testing.T) {
			fullAssign := fullScanOracle(t, fx.e)
			got, err := fx.e.AssignBatch(fx.qs)
			if err != nil {
				t.Fatal(err)
			}
			assigned := 0
			for i, q := range fx.qs {
				one, err := fx.e.AssignBatch(fx.qs[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				wantC, wantS := fullAssign(q)
				for _, a := range []Assignment{got[i], one[0]} {
					if a.Cluster != wantC {
						t.Fatalf("query %d: batch winner %d, full-scan winner %d", i, a.Cluster, wantC)
					}
					if wantC >= 0 && a.Score != wantS {
						t.Fatalf("query %d: batch score %v, full-scan score %v", i, a.Score, wantS)
					}
				}
				if wantC >= 0 {
					assigned++
				}
			}
			if assigned == 0 {
				t.Fatal("no query was assigned — crosscheck is vacuous")
			}
		})
	}
}

// Both assign forms run on one pooled scratch, so a marker-generation wrap
// inside a batch must clear the single form's point markers too: a stale
// marker equal to a reused generation makes Assign skip a live candidate.
// Per query, one scratch runs a single assign, then a batch across the
// uint32 wrap, then the same single assign at the same generation as the
// first; every answer must equal the full-scan reference.
func TestAssignMarkerWrap(t *testing.T) {
	pts, _ := testutil.Blobs(53, [][]float64{{0, 0}, {12, 12}}, 250, 0.05, 40, -20, 25)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fullAssign := fullScanOracle(t, e)
	qs := mixedQueries(pts, 60, 63)
	assigned := 0
	check := func(stage string, i int, a Assignment) {
		t.Helper()
		wantC, wantS := fullAssign(qs[i])
		if a.Cluster != wantC || (wantC >= 0 && a.Score != wantS) {
			t.Fatalf("%s, query %d: %+v, full scan (%d, %v)", stage, i, a, wantC, wantS)
		}
		if wantC >= 0 {
			assigned++
		}
	}

	const batch = 8
	st := e.state.Load()
	for i, q := range qs {
		sc := st.pool.New().(*scratch) // zeroed markers
		sc.gen = batch
		check("before the wrap", i, e.assignOne(st, sc, q))
		sc.gen = math.MaxUint32 - batch/2
		for k, a := range e.assignBatch(st, sc, qs[:batch], nil) {
			check("batch across the wrap", k, a)
		}
		if sc.gen != batch {
			t.Fatalf("generation %d after the wrapping batch, want %d", sc.gen, batch)
		}
		check("after the wrap", i, e.assignOne(st, sc, q))
	}
	if assigned == 0 {
		t.Fatal("no query was assigned — crosscheck is vacuous")
	}
}

// Batch validation is atomic: one bad point fails the whole batch, the error
// names its index, and nothing is scored or counted.
func TestAssignBatchAtomicValidation(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	before := e.Stats().Assigns

	bad := [][]float64{{0, 0}, {1, 1}, {1, 2, 3}, {2, 2}}
	if _, err := e.AssignBatch(bad); err == nil {
		t.Fatal("wrong-width point accepted")
	} else if !strings.Contains(err.Error(), "point 2") {
		t.Fatalf("error does not name the offending index: %v", err)
	}

	nan := [][]float64{{0, 0}, {math.NaN(), 1}}
	if _, err := e.AssignBatch(nan); err == nil {
		t.Fatal("NaN point accepted")
	} else if !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("error does not name the offending index: %v", err)
	}

	if after := e.Stats().Assigns; after != before {
		t.Fatalf("failed batches counted: assigns %d → %d", before, after)
	}
	// And a valid batch still works after the failures.
	out, err := e.AssignBatch([][]float64{{0.1, 0.1}, {15, 15}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Cluster < 0 {
		t.Fatalf("valid batch after failure: %+v", out)
	}
	if got := e.Stats().Assigns; got != before+2 {
		t.Fatalf("assigns = %d, want %d", got, before+2)
	}
}

// Batches against an empty (or index-less) engine answer noise per point,
// and an empty batch is a no-op.
func TestAssignBatchEmptyEngine(t *testing.T) {
	e, err := New(engineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out, err := e.AssignBatch([][]float64{{1, 2, 3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out {
		if a.Cluster != -1 {
			t.Fatalf("empty engine assigned query %d: %+v", i, a)
		}
	}
	if out, err := e.AssignBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// The batch path must be allocation-free per query in steady state, through
// the one-shard router too: the pooled arenas grow to the high-water batch
// once and are then reused.
func TestAssignBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	pts, _ := testutil.Blobs(61, [][]float64{{0, 0}, {12, 12}}, 200, 0.05, 20, -15, 20)
	queries := mixedQueries(pts, 64, 62)
	for name, e := range allocFreeServers(t, pts) {
		var out []Assignment
		var err error
		for i := 0; i < 30; i++ { // warm the pooled arenas to steady capacity
			if out, err = e.AssignBatchInto(queries, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if out, err = e.AssignBatchInto(queries, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AssignBatchInto allocates %v per batch, want 0", name, allocs)
		}
	}
}
