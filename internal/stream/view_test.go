package stream

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"alid/internal/index"
	"alid/internal/testutil"
)

// checkLabelClusterConsistency asserts the bidirectional invariant between
// Labels() and Clusters(): every label points into a cluster that contains
// the point, and every member carries its cluster's label unless a strictly
// denser overlapping cluster claimed it. It also asserts that the available
// set is exactly the live unlabeled points.
func checkLabelClusterConsistency(t *testing.T, c *Clusterer) {
	t.Helper()
	lbl := c.Labels()
	cls := c.Clusters()
	if len(c.avail) != len(lbl) {
		t.Fatalf("%d available-set entries for %d labels", len(c.avail), len(lbl))
	}
	for i, l := range lbl {
		if want := l == -1 && c.mat.Live(i); c.avail[i] != want {
			t.Fatalf("point %d labeled %d, live %v: available %v, want %v", i, l, c.mat.Live(i), c.avail[i], want)
		}
		if l == -1 {
			continue
		}
		if l < 0 || l >= len(cls) {
			t.Fatalf("point %d labeled %d, only %d clusters", i, l, len(cls))
		}
		if !slices.Contains(cls[l].Members, i) {
			t.Fatalf("point %d labeled %d but cluster %d does not contain it", i, l, l)
		}
	}
	for ci, cl := range cls {
		for _, m := range cl.Members {
			got := lbl[m]
			if got == ci {
				continue
			}
			if got == -1 {
				t.Fatalf("member %d of cluster %d is unlabeled", m, ci)
			}
			if cls[got].Density <= cl.Density {
				t.Fatalf("member %d of cluster %d (density %v) claimed by cluster %d (density %v): overlaps must resolve to the densest",
					m, ci, cl.Density, got, cls[got].Density)
			}
			if !slices.Contains(cls[got].Members, m) {
				t.Fatalf("member %d stolen by cluster %d that does not contain it", m, got)
			}
		}
	}
}

// After a commit that re-converges a dirty cluster, labels must track the
// re-converged membership exactly.
func TestLabelStabilityAfterDirtyRecovergence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	initial, _ := testutil.Blobs(31, [][]float64{{0, 0}, {14, 14}}, 25, 0.3, 10, 0, 14)
	c, err := New(initial, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	checkLabelClusterConsistency(t, c)
	if len(c.Clusters()) == 0 {
		t.Fatal("no initial clusters — test is vacuous")
	}

	// Infective arrivals inside the first blob dirty it; far noise rides along.
	for i := 0; i < 15; i++ {
		p := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		p := []float64{40 + rng.Float64()*20, -40 - rng.Float64()*20}
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	checkLabelClusterConsistency(t, c)
}

// A dirty cluster whose re-convergence lands below the density threshold is
// dropped entirely (the "empty re-convergence" edge): its members must revert
// to noise rather than keep a dangling label.
func TestDroppedRecovergenceClearsLabels(t *testing.T) {
	initial, _ := testutil.Blobs(37, [][]float64{{0, 0}}, 30, 0.3, 0, 0, 1)
	c, err := New(initial, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters()) == 0 {
		t.Fatal("no cluster detected — test is vacuous")
	}
	v := c.View()

	// Same state, but under a config whose threshold the cluster cannot meet
	// after re-convergence.
	strict := streamConfig()
	strict.Core.DensityThreshold = 0.999
	rc, err := RestoreGeneration(strict, v.Mat, v.Index, v.Clusters, v.Labels.Flat(), v.Commits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An exact duplicate of the heaviest member is always infective (its
	// payoff exceeds the member's by w·a(dup,member) > tol), so the cluster
	// goes dirty and re-converges.
	seed := heaviestMember(v.Clusters[0])
	dup := append([]float64(nil), v.Mat.Row(seed)...)
	if err := rc.Add(ctx, dup); err != nil {
		t.Fatal(err)
	}
	if err := rc.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(rc.Clusters()); got != 0 {
		t.Fatalf("sub-threshold re-convergence kept %d clusters", got)
	}
	for i, l := range rc.Labels() {
		if l != -1 {
			t.Fatalf("point %d still labeled %d after its cluster was dropped", i, l)
		}
	}
	checkLabelClusterConsistency(t, rc)
}

// A View must stay frozen while the live clusterer advances (copy-on-write).
func TestViewImmutableUnderCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	initial, _ := testutil.Blobs(41, [][]float64{{0, 0}}, 25, 0.3, 5, 0, 1)
	c, err := New(initial, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	v := c.View()
	wantN := v.Mat.N
	wantLabels := v.Labels.Flat()
	wantRow0 := append([]float64(nil), v.Mat.Row(0)...)
	wantCand := candidates(v.Index, 0)

	for i := 0; i < 60; i++ {
		p := []float64{20 + rng.NormFloat64()*0.3, 20 + rng.NormFloat64()*0.3}
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if c.N() <= wantN {
		t.Fatal("live clusterer did not advance")
	}
	if v.Mat.N != wantN || v.Index.N() != wantN || v.Labels.Len() != wantN {
		t.Fatalf("view grew: mat=%d index=%d labels=%d want %d", v.Mat.N, v.Index.N(), v.Labels.Len(), wantN)
	}
	if !slices.Equal(v.Labels.Flat(), wantLabels) {
		t.Fatal("view labels mutated")
	}
	if !slices.Equal(v.Mat.Row(0), wantRow0) {
		t.Fatal("view matrix mutated")
	}
	if !slices.Equal(candidates(v.Index, 0), wantCand) {
		t.Fatal("view index mutated")
	}
	// A second view reflects the advanced state.
	v2 := c.View()
	if v2.Mat.N != c.N() {
		t.Fatalf("fresh view has %d points, live has %d", v2.Mat.N, c.N())
	}
}

func TestAddRejectsWrongWidth(t *testing.T) {
	c, err := New([][]float64{{0, 0}, {1, 1}}, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(context.Background(), []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-width point accepted")
	}
	if err := c.Add(context.Background(), nil); err == nil {
		t.Fatal("empty point accepted")
	}
	if got := c.Pending(); got != 2 {
		t.Fatalf("rejected points were buffered: pending=%d", got)
	}
}

func TestNewRejectsRaggedInitial(t *testing.T) {
	if _, err := New([][]float64{{0, 0}, {1, 1, 1}}, streamConfig()); err == nil {
		t.Fatal("ragged initial batch accepted")
	}
}

func TestRestoreValidation(t *testing.T) {
	initial, _ := testutil.Blobs(43, [][]float64{{0, 0}}, 20, 0.3, 0, 0, 1)
	c, err := New(initial, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	v := c.View()

	if _, err := RestoreGeneration(streamConfig(), nil, v.Index, v.Clusters, v.Labels.Flat(), v.Commits, 0, 0); err == nil {
		t.Fatal("accepted nil matrix")
	}
	if _, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, v.Labels.Flat()[:5], v.Commits, 0, 0); err == nil {
		t.Fatal("accepted short labels")
	}
	bad := v.Labels.Flat()
	bad[0] = len(v.Clusters) + 3
	if _, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, bad, v.Commits, 0, 0); err == nil {
		t.Fatal("accepted out-of-range label")
	}
	bad[0] = -2
	if _, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, bad, v.Commits, 0, 0); err == nil {
		t.Fatal("accepted label below -1")
	}
	// An index hashing a different dimensionality must be rejected at load.
	pts3 := make([][]float64, v.Mat.N)
	for i := range pts3 {
		pts3[i] = []float64{1, 2, 3}
	}
	c3, err := New(pts3, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreGeneration(streamConfig(), v.Mat, c3.View().Index, v.Clusters, v.Labels.Flat(), v.Commits, 0, 0); err == nil {
		t.Fatal("accepted dimension-mismatched index")
	}

	rc, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, v.Labels.Flat(), v.Commits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.N() != c.N() || len(rc.Clusters()) != len(c.Clusters()) {
		t.Fatalf("restore mismatch: n=%d/%d clusters=%d/%d", rc.N(), c.N(), len(rc.Clusters()), len(c.Clusters()))
	}
	checkLabelClusterConsistency(t, rc)
}

// candidates returns the live ids co-bucketed with id, in the index's
// deterministic order.
func candidates(ix index.Index, id int) []int32 {
	return ix.CandidatesByIDsInto([]int{id}, nil, make([]uint32, ix.N()), 1, nil)
}
