package palid

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/eval"
	"alid/internal/lsh"
	"alid/internal/testutil"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.3, P: 2}
	cfg.LSH = lsh.Config{Projections: 6, Tables: 10, R: 4, Seed: 1}
	cfg.Delta = 200
	cfg.DensityThreshold = 0.75
	return cfg
}

func TestDetectBlobs(t *testing.T) {
	pts, labels := testutil.Blobs(11, [][]float64{{0, 0}, {15, 0}, {0, 15}}, 40, 0.3, 40, 0, 15)
	res, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds == 0 {
		t.Fatal("no seeds sampled")
	}
	if len(res.Clusters) < 3 {
		t.Fatalf("clusters = %d, want ≥ 3", len(res.Clusters))
	}
	score, err := eval.Score(labels, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.6 {
		t.Fatalf("AVG-F = %v, want ≥ 0.6", score.AVGF)
	}
	if score.NoiseFiltered < 0.8 {
		t.Fatalf("NoiseFiltered = %v, want ≥ 0.8", score.NoiseFiltered)
	}
}

// The reduce must assign overlap points to the densest cluster and the
// assignment must be a partition of the clustered points.
func TestAssignmentConsistent(t *testing.T) {
	pts, _ := testutil.Blobs(13, [][]float64{{0, 0}, {12, 12}}, 30, 0.3, 20, 0, 12)
	res, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for ci, cl := range res.Clusters {
		for _, m := range cl.Members {
			if prev, dup := seen[m]; dup {
				t.Fatalf("point %d in clusters %d and %d", m, prev, ci)
			}
			seen[m] = ci
			if res.Assign[m] != ci {
				t.Fatalf("Assign[%d] = %d, want %d", m, res.Assign[m], ci)
			}
		}
	}
	if len(res.Assign) != len(pts) {
		t.Fatalf("Assign has %d entries for %d points", len(res.Assign), len(pts))
	}
	for i, a := range res.Assign {
		if _, ok := seen[i]; !ok && a != -1 {
			t.Fatalf("point %d is in no cluster but Assign[%d] = %d", i, i, a)
		}
	}
}

// Four points fill no bucket beyond MinBucketSize, so the run samples no
// seed and maps nothing: it must come back with no cluster, every point -1
// and no error.
func TestNoSeedsNoClusters(t *testing.T) {
	pts, _ := testutil.Blobs(13, [][]float64{{0, 0}}, 4, 0.3, 0, 0, 1)
	res, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 0 || len(res.Clusters) != 0 {
		t.Fatalf("%d seeds, %d clusters; want none", res.Seeds, len(res.Clusters))
	}
	if len(res.Assign) != len(pts) {
		t.Fatalf("Assign has %d entries for %d points", len(res.Assign), len(pts))
	}
	for i, a := range res.Assign {
		if a != -1 {
			t.Fatalf("Assign[%d] = %d, want -1", i, a)
		}
	}
}

// PALID's result must be invariant to the executor count (same seeds, same
// deterministic per-seed detection, same reduction).
func TestExecutorCountInvariance(t *testing.T) {
	pts, _ := testutil.Blobs(17, [][]float64{{0, 0}, {10, 10}}, 25, 0.3, 20, 0, 10)
	r1, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Clusters) == 0 {
		t.Fatal("no clusters detected — the invariance check is vacuous")
	}
	for _, executors := range []int{2, 4, 8} {
		r, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(executors))
		if err != nil {
			t.Fatal(err)
		}
		if r.Seeds != r1.Seeds || len(r.Clusters) != len(r1.Clusters) {
			t.Fatalf("Executors %d: %d seeds, %d clusters; Executors 1: %d, %d",
				executors, r.Seeds, len(r.Clusters), r1.Seeds, len(r1.Clusters))
		}
		for ci, cl := range r.Clusters {
			if cl.Density != r1.Clusters[ci].Density || cl.Seed != r1.Clusters[ci].Seed ||
				!slices.Equal(cl.Members, r1.Clusters[ci].Members) {
				t.Fatalf("Executors %d: cluster %d differs from Executors 1", executors, ci)
			}
		}
		if !slices.Equal(r.Assign, r1.Assign) {
			t.Fatalf("Executors %d: Assign differs from Executors 1", executors)
		}
	}
}

// Every seed runs on the detector of the executor that took it. With as
// many executors as seeds, and with more, each worker index must still pick
// an executor's own detector and every seed must fill its slot: the answer
// equals one executor's. Under -race, two seeds sharing a detector at once
// would be reported.
func TestExecutorsBeyondSeeds(t *testing.T) {
	pts, _ := testutil.Blobs(31, [][]float64{{0, 0}, {10, 10}}, 10, 0.3, 4, 0, 10)
	r1, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seeds < 2 || len(r1.Clusters) == 0 {
		t.Fatalf("%d seeds, %d clusters: the fixture no longer exercises several executors", r1.Seeds, len(r1.Clusters))
	}
	for _, executors := range []int{r1.Seeds, r1.Seeds + 4} {
		r, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(executors))
		if err != nil {
			t.Fatal(err)
		}
		if r.Seeds != r1.Seeds || len(r.Clusters) != len(r1.Clusters) || !slices.Equal(r.Assign, r1.Assign) {
			t.Fatalf("Executors %d over %d seeds: %d clusters, Assign equal %v; Executors 1: %d clusters",
				executors, r.Seeds, len(r.Clusters), slices.Equal(r.Assign, r1.Assign), len(r1.Clusters))
		}
		for ci, cl := range r.Clusters {
			if cl.Density != r1.Clusters[ci].Density || !slices.Equal(cl.Members, r1.Clusters[ci].Members) {
				t.Fatalf("Executors %d: cluster %d differs from Executors 1", executors, ci)
			}
		}
	}
}

func TestSeedsComeFromLargeBuckets(t *testing.T) {
	pts, labels := testutil.Blobs(19, [][]float64{{0, 0}}, 50, 0.3, 5, 20, 30)
	cfg := testConfig()
	det, err := core.NewDetector(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := sampleSeeds(det.Index(), DefaultOptions(1))
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	// The blob dominates every big bucket, so most seeds are blob members.
	blob := 0
	for _, s := range seeds {
		if labels[s] == 0 {
			blob++
		}
	}
	if float64(blob)/float64(len(seeds)) < 0.8 {
		t.Fatalf("only %d/%d seeds from the cluster", blob, len(seeds))
	}
}

func TestInvalidOptions(t *testing.T) {
	pts, _ := testutil.Blobs(23, [][]float64{{0, 0}}, 10, 0.3, 0, 0, 1)
	for _, executors := range []int{0, -2} {
		if _, err := Detect(context.Background(), pts, testConfig(), Options{Executors: executors}); err == nil {
			t.Fatalf("Executors %d accepted", executors)
		}
	}
}

// countdownCtx reports cancellation once its Err has been consulted more
// than allow times, from any goroutine: it cancels a run at a chosen poll.
type countdownCtx struct {
	context.Context
	calls *atomic.Int64
	allow int64
}

func (c countdownCtx) Err() error {
	if c.calls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

// A context cancelled before the map fails the run with the context's
// error and no result.
func TestContextCancel(t *testing.T) {
	pts, _ := testutil.Blobs(29, [][]float64{{0, 0}, {9, 9}}, 30, 0.3, 10, 0, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Detect(ctx, pts, testConfig(), DefaultOptions(2))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("result %v, err %v; want no result and context.Canceled", res, err)
	}
}

// A cancellation in the middle of the map at 4 executors fails the run with
// the context's error and no result, and stops the seeds not yet started:
// past the cancelling poll, each executor polls at most once more, and the
// map's end once.
func TestMidMapCancelStopsSeeds(t *testing.T) {
	pts, _ := testutil.Blobs(29, [][]float64{{0, 0}, {9, 9}}, 30, 0.3, 10, 0, 9)
	var fullPolls atomic.Int64
	full := countdownCtx{Context: context.Background(), calls: &fullPolls, allow: math.MaxInt64}
	if _, err := Detect(full, pts, testConfig(), DefaultOptions(4)); err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	mid := countdownCtx{Context: context.Background(), calls: &polls, allow: fullPolls.Load() / 4}
	res, err := Detect(mid, pts, testConfig(), DefaultOptions(4))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("result %v, err %v; want no result and context.Canceled", res, err)
	}
	if got, bound := polls.Load(), mid.allow+4+1; got > bound {
		t.Fatalf("%d polls, want at most %d of a full run's %d", got, bound, fullPolls.Load())
	}
}

// A cancellation that lands after every seed has run still fails the run:
// the map's end checks the context before the reduce. The map's polls are
// counted by running Algorithm 2 from every seed directly; a run allowed
// exactly that many must fail at the next poll.
func TestCancelAfterMap(t *testing.T) {
	pts, _ := testutil.Blobs(29, [][]float64{{0, 0}, {9, 9}}, 30, 0.3, 10, 0, 9)
	det, err := core.NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mapPolls atomic.Int64
	count := countdownCtx{Context: context.Background(), calls: &mapPolls, allow: math.MaxInt64}
	for _, seed := range sampleSeeds(det.Index(), DefaultOptions(1)) {
		if _, err := det.DetectFrom(count, seed, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, executors := range []int{1, 4} {
		var polls atomic.Int64
		end := countdownCtx{Context: context.Background(), calls: &polls, allow: mapPolls.Load()}
		res, err := Detect(end, pts, testConfig(), DefaultOptions(executors))
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("Executors %d: result %v, err %v; want no result and context.Canceled", executors, res, err)
		}
		if got, want := polls.Load(), mapPolls.Load()+1; got != want {
			t.Fatalf("Executors %d: %d polls, want the map's %d and one at its end", executors, got, want-1)
		}
	}
}
