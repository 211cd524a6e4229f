package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"alid/internal/core"
	"alid/internal/testutil"
)

// Clusters must hand out a FRESH slice: a caller that appends to or
// reorders the returned slice must not be able to corrupt clusterer state
// (it used to return the live internal slice).
func TestClustersReturnsCopy(t *testing.T) {
	pts, _ := testutil.Blobs(5, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 0, 0, 15)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := c.Clusters()
	if len(got) < 2 {
		t.Fatalf("clusters = %d, want ≥ 2 — aliasing test is vacuous", len(got))
	}
	// Corrupt the returned slice every way a caller could.
	got[0], got[1] = got[1], got[0]
	got = append(got, &core.Cluster{Seed: -99})
	_ = got

	again := c.Clusters()
	if len(again) != len(got)-1 {
		t.Fatalf("appending to the returned slice changed the cluster count: %d", len(again))
	}
	// The clusterer's own ordering is intact: labels still point at the
	// right clusters.
	checkLabelClusterConsistency(t, c)
}

// A corrupt or handcrafted snapshot must fail at the Restore boundary with
// an error — never later as a heaviestMember panic inside a commit.
func TestRestoreRejectsCorruptClusters(t *testing.T) {
	pts, _ := testutil.Blobs(6, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 0, 0, 15)
	live, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := live.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	v := live.View()
	if len(v.Clusters) == 0 {
		t.Fatal("no clusters — test is vacuous")
	}

	restore := func(cls []*core.Cluster, labels []int) error {
		_, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, cls, labels, v.Commits, 0, 0)
		return err
	}
	good := v.Labels.Flat()
	if err := restore(v.Clusters, good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	// Memberless cluster: the exact shape that used to reach the
	// heaviestMember panic when a later commit re-converged it.
	memberless := append([]*core.Cluster(nil), v.Clusters...)
	memberless[0] = &core.Cluster{Density: 0.9, Seed: 1}
	if err := restore(memberless, good); err == nil {
		t.Fatal("memberless cluster accepted")
	}

	// Ragged weights.
	ragged := append([]*core.Cluster(nil), v.Clusters...)
	orig := ragged[0]
	ragged[0] = &core.Cluster{Members: orig.Members, Weights: orig.Weights[:1], Density: orig.Density}
	if err := restore(ragged, good); err == nil {
		t.Fatal("ragged weights accepted")
	}

	// Member out of range.
	oob := append([]*core.Cluster(nil), v.Clusters...)
	oob[0] = &core.Cluster{Members: []int{v.Mat.N + 7}, Weights: []float64{1}, Density: orig.Density}
	if err := restore(oob, good); err == nil {
		t.Fatal("out-of-range member accepted")
	}

	// And the committing path stays alive after a valid restore: no panic.
	ok, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, good, v.Commits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		if err := ok.Add(ctx, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ok.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// Eviction removes points from every answer surface: labels, clusters,
// published views and index queries. Clusters that merely lost a few
// members are repaired in place with weights renormalized on the simplex;
// a cluster losing most of its support is re-converged or dropped.
func TestEvictRemovesPointsEverywhere(t *testing.T) {
	pts, _ := testutil.Blobs(7, [][]float64{{0, 0}, {15, 15}, {-15, 15}}, 40, 0.3, 10, -30, 30)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters()) < 3 {
		t.Fatalf("clusters = %d, want ≥ 3", len(c.Clusters()))
	}

	// Kill blob 0 entirely (ids 0..39) and nibble two members off blob 1.
	ids := make([]int, 0, 42)
	for i := 0; i < 40; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, 40, 41)
	n, err := c.Evict(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 {
		t.Fatalf("evicted %d, want 42", n)
	}
	if c.Live() != len(pts)-42 || c.Evicted() != 42 {
		t.Fatalf("live %d evicted %d", c.Live(), c.Evicted())
	}

	labels := c.Labels()
	for _, id := range ids {
		if labels[id] != -1 {
			t.Fatalf("evicted point %d still labeled %d", id, labels[id])
		}
	}
	for ci, cl := range c.Clusters() {
		var sum float64
		for t2, m := range cl.Members {
			for _, id := range ids {
				if m == id {
					t.Fatalf("cluster %d still contains evicted member %d", ci, m)
				}
			}
			sum += cl.Weights[t2]
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Fatalf("cluster %d weights sum to %v after repair, want 1 on the simplex", ci, sum)
		}
		if cl.Density < 0.75 {
			t.Fatalf("cluster %d kept with density %v below threshold", ci, cl.Density)
		}
	}
	// The view's index answers only with survivors.
	v := c.View()
	for _, id := range []int{50, 90, 119} {
		for _, cand := range candidates(v.Index, id) {
			if int(cand) < 42 && cand >= 0 {
				for _, dead := range ids {
					if int(cand) == dead {
						t.Fatalf("dead id %d surfaced from the view index", cand)
					}
				}
			}
		}
	}
	checkLabelClusterConsistency(t, c)

	// Idempotent retries and later commits keep working; ids stay stable.
	if n, err := c.Evict(ctx, ids); err != nil || n != 0 {
		t.Fatalf("re-evict: n=%d err=%v", n, err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		if err := c.Add(ctx, []float64{15 + rng.NormFloat64()*0.3, 15 + rng.NormFloat64()*0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	checkLabelClusterConsistency(t, c)
	if c.N() != len(pts)+30 {
		t.Fatalf("N = %d, want %d (ids stable, dead included)", c.N(), len(pts)+30)
	}

	// Out-of-range ids are rejected before any mutation.
	if _, err := c.Evict(ctx, []int{c.N() + 3}); err == nil {
		t.Fatal("out-of-range evict accepted")
	}
}

// countdownCtx reports cancellation only after its Err has been consulted
// `allow` times: it lets a test cancel at a precise point inside Evict's
// re-convergence phase.
type countdownCtx struct {
	context.Context
	calls *int
	allow int
}

func (c countdownCtx) Err() error {
	*c.calls++
	if *c.calls > c.allow {
		return context.Canceled
	}
	return nil
}

// A cancellation that lands inside phase-3 re-convergence must not leave
// labels disagreeing with cluster membership: the repaired cluster is
// reclaimed, its survivors stay labeled, and no cluster retains a dead
// member.
func TestEvictCancelledReconvergeStaysConsistent(t *testing.T) {
	pts, _ := testutil.Blobs(19, [][]float64{{0, 0}, {15, 15}}, 40, 0.3, 0, 0, 15)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters()) < 2 {
		t.Fatal("need ≥ 2 clusters")
	}

	// Evict ~45% of blob 0's points: well past evictReconvergeShare, so its
	// cluster enters phase 3. The countdown lets the phase-3 loop-top check
	// pass and fails the next poll, inside DetectFrom.
	ids := make([]int, 0, 18)
	for i := 0; i < 18; i++ {
		ids = append(ids, i)
	}
	calls := 0
	_, err = c.Evict(countdownCtx{Context: context.Background(), calls: &calls, allow: 1}, ids)
	if err == nil {
		t.Fatal("cancellation did not surface — countdown never hit a DetectFrom poll")
	}

	// Tombstones applied, membership repaired, labels consistent.
	if c.Evicted() != 18 {
		t.Fatalf("evicted %d, want 18", c.Evicted())
	}
	for ci, cl := range c.Clusters() {
		var sum float64
		for t2, m := range cl.Members {
			if m < 18 {
				t.Fatalf("cluster %d retains dead member %d after cancelled evict", ci, m)
			}
			sum += cl.Weights[t2]
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Fatalf("cluster %d weights sum %v after cancelled evict", ci, sum)
		}
	}
	checkLabelClusterConsistency(t, c)

	// The stream stays fully operational: a later commit re-converges.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		if err := c.Add(context.Background(), []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLabelClusterConsistency(t, c)
}

// A cancellation that lands inside a commit's re-convergence of a dirty
// cluster, or inside its probes of new points, must leave a valid
// maintained state: the interrupted cluster is reclaimed, labels agree with
// cluster membership, and every cluster meets the density threshold and
// the minimum size. The countdown cancels at each of the first six polls.
func TestCommitCancelledReconvergeStaysConsistent(t *testing.T) {
	pts, _ := testutil.Blobs(19, [][]float64{{0, 0}, {15, 15}}, 40, 0.3, 0, 0, 15)
	for allow := 1; allow <= 6; allow++ {
		c, err := New(pts, streamConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Ten arrivals in blob 0 make its cluster dirty.
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 10; i++ {
			if err := c.Add(context.Background(), []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		err = c.Commit(countdownCtx{Context: context.Background(), calls: &calls, allow: allow})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("allow %d: commit err = %v, want context.Canceled", allow, err)
		}
		checkLabelClusterConsistency(t, c)
		checkClustersMeetThreshold(t, c)

		// The stream stays fully operational: a later commit carries on.
		for i := 0; i < 10; i++ {
			if err := c.Add(context.Background(), []float64{15 + rng.NormFloat64()*0.3, 15 + rng.NormFloat64()*0.3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkLabelClusterConsistency(t, c)
		checkClustersMeetThreshold(t, c)
	}
}

// checkClustersMeetThreshold asserts that every maintained cluster meets
// the density threshold and the minimum size, as compact leaves them.
func checkClustersMeetThreshold(t *testing.T, c *Clusterer) {
	t.Helper()
	cfg := c.det.Config()
	for ci, cl := range c.clusters {
		if cl.Density < cfg.DensityThreshold || cl.Size() < cfg.MinClusterSize {
			t.Fatalf("cluster %d: %d members, density %v; threshold %v, minimum size %d",
				ci, cl.Size(), cl.Density, cfg.DensityThreshold, cfg.MinClusterSize)
		}
	}
}

// MaxPoints retention: a long ingest run keeps the live set pinned at the
// window while ids (and N) keep growing — the unbounded-memory bug this PR
// exists to fix, at the Clusterer level.
func TestRetentionMaxPoints(t *testing.T) {
	const window = 120
	cfg := streamConfig()
	cfg.BatchSize = 40
	cfg.Retention = Retention{MaxPoints: window}
	c, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	total := 0
	for batch := 0; batch < 30; batch++ {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		for i := 0; i < 40; i++ {
			if err := c.Add(ctx, []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3}); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if c.Pending() != 0 {
			if err := c.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.Live(); got > window {
			t.Fatalf("after %d points live = %d > window %d", total, got, window)
		}
	}
	if c.N() != total {
		t.Fatalf("N = %d, want %d", c.N(), total)
	}
	if c.Live() != window {
		t.Fatalf("steady-state live = %d, want %d", c.Live(), window)
	}
	// The oldest N-window points are all dead, the newest `window` all live.
	for i := 0; i < total-window; i += 97 {
		if lbl := c.Labels()[i]; lbl != -1 {
			t.Fatalf("expired point %d still labeled %d", i, lbl)
		}
	}
	checkLabelClusterConsistency(t, c)
	// No maintained cluster references an expired point.
	for ci, cl := range c.Clusters() {
		for _, m := range cl.Members {
			if m < total-window {
				t.Fatalf("cluster %d kept expired member %d", ci, m)
			}
		}
	}
}

// MaxAge retention under an injected clock: commits older than the bound
// are evicted wholesale, newer ones survive.
func TestRetentionMaxAge(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	cfg := streamConfig()
	cfg.BatchSize = 1 << 30
	cfg.Retention = Retention{MaxAge: 10 * time.Second, Now: clock}
	c, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	commitBlob := func(cx, cy float64) {
		for i := 0; i < 30; i++ {
			if err := c.Add(ctx, []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	commitBlob(0, 0) // t=1000: ids 0..29
	now = now.Add(6 * time.Second)
	commitBlob(50, 50) // t=1006: ids 30..59
	if c.Live() != 60 {
		t.Fatalf("live = %d before any expiry, want 60", c.Live())
	}
	now = now.Add(6 * time.Second)
	commitBlob(100, 100) // t=1012: first commit is now 12s old → expired
	if c.Live() != 60 {
		t.Fatalf("live = %d, want 60 (first commit expired)", c.Live())
	}
	for i := 0; i < 30; i++ {
		if c.Labels()[i] != -1 {
			t.Fatalf("expired point %d still labeled", i)
		}
	}
	for i := 30; i < 90; i++ {
		if !c.mat.Live(i) {
			t.Fatalf("fresh point %d evicted", i)
		}
	}
	checkLabelClusterConsistency(t, c)
}
