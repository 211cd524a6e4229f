package palid

import (
	"context"
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

// The reducer must assign overlap points to the densest cluster and the
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
	for i, a := range res.Assign {
		if a == -1 {
			if _, ok := seen[i]; ok {
				t.Fatalf("point %d assigned and unassigned", i)
			}
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
	r4, err := Detect(context.Background(), pts, testConfig(), DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seeds != r4.Seeds {
		t.Fatalf("seed lists differ: %d vs %d", r1.Seeds, r4.Seeds)
	}
	if len(r1.Clusters) != len(r4.Clusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(r1.Clusters), len(r4.Clusters))
	}
	for i := range r1.Assign {
		a, b := r1.Assign[i], r4.Assign[i]
		if (a == -1) != (b == -1) {
			t.Fatalf("point %d: assigned=%v vs %v", i, a != -1, b != -1)
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
	if _, err := Detect(context.Background(), pts, testConfig(), Options{Executors: 0}); err == nil {
		t.Fatal("zero executors accepted")
	}
}

func TestContextCancel(t *testing.T) {
	pts, _ := testutil.Blobs(29, [][]float64{{0, 0}, {9, 9}}, 30, 0.3, 10, 0, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Detect(ctx, pts, testConfig(), DefaultOptions(2)); err == nil {
		t.Fatal("cancelled context should abort")
	}
}
