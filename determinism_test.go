package alid

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"alid/internal/testutil"
)

// Detection must be fully deterministic for a fixed configuration: same
// clusters, same weights, same order. Downstream users rely on this for
// reproducible pipelines.
func TestDetectAllDeterministic(t *testing.T) {
	pts, _ := testutil.Blobs(5, [][]float64{{0, 0}, {14, 14}}, 30, 0.3, 30, 0, 14)
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Cluster {
		det, err := NewDetector(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := det.DetectAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return cls
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Density != b[i].Density || a[i].Size() != b[i].Size() {
			t.Fatalf("cluster %d differs", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] || a[i].Weights[j] != b[i].Weights[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

// AutoConfig must be deterministic too (it samples with a fixed seed).
func TestAutoConfigDeterministic(t *testing.T) {
	pts, _ := testutil.Blobs(7, [][]float64{{0, 0}}, 40, 0.4, 40, 0, 10)
	a, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("AutoConfig not deterministic: %+v vs %+v", a, b)
	}
}

// DetectParallel must give the same answer at any executor count: the same
// clusters in the same order (members and density bits), the same Assign
// and the same seed count (verified again at the public-API level).
func TestDetectParallelExecutorInvariance(t *testing.T) {
	pts, _ := testutil.Blobs(9, [][]float64{{0, 0}, {14, 14}}, 25, 0.3, 25, 0, 14)
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := DetectParallel(context.Background(), pts, cfg, ParallelOptions{Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Clusters) == 0 {
		t.Fatal("no clusters detected — the invariance check is vacuous")
	}
	for _, executors := range []int{3, 8} {
		r, err := DetectParallel(context.Background(), pts, cfg, ParallelOptions{Executors: executors})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("Executors %d vs 1", executors)
		sameClusters(t, r1.Clusters, r.Clusters, label)
		if r.Seeds != r1.Seeds {
			t.Fatalf("%s: seed counts %d vs %d", label, r.Seeds, r1.Seeds)
		}
		if !slices.Equal(r.Assign, r1.Assign) {
			t.Fatalf("%s: Assign differs", label)
		}
	}
}
