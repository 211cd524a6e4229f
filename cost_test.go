package alid

import (
	"context"
	"testing"

	"alid/internal/dataset"
)

// The paper's cost claim (§4.5): ALID spends O(C(a*+δ)n) kernel
// evaluations and never builds the n² affinity matrix. On the eta mixture
// the planted cluster size a* grows as n^0.9, so doubling n must shrink the
// evaluated share of n², and evaluations per point may grow by no more than
// a* does. The counts are deterministic, so the test reads work, not time.
func TestCostClaimEvaluatedShareFalls(t *testing.T) {
	type run struct {
		n, aStar int
		evals    int64
	}
	var runs []run
	for _, n := range []int{10000, 20000} {
		mc := dataset.DefaultMixtureConfig(n, dataset.RegimeEta)
		mc.Seed = 3101
		ds, err := dataset.Mixture(mc)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := AutoConfig(ds.Points)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(ds.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := det.DetectAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		r := run{n, mc.ClusterSize(), det.Stats().AffinityComputed}
		t.Logf("n=%d a*=%d: %d kernel evaluations, %.1f per point, %.3f%% of n²",
			r.n, r.aStar, r.evals, float64(r.evals)/float64(r.n), 100*float64(r.evals)/float64(r.n*r.n))
		runs = append(runs, r)
	}
	small, large := runs[0], runs[1]
	share := func(r run) float64 { return float64(r.evals) / float64(r.n*r.n) }
	if share(large) >= share(small) {
		t.Errorf("evaluated share of n² rose from %.5f to %.5f as n doubled", share(small), share(large))
	}
	perPoint := func(r run) float64 { return float64(r.evals) / float64(r.n) }
	growth, aGrowth := perPoint(large)/perPoint(small), float64(large.aStar)/float64(small.aStar)
	if growth > aGrowth {
		t.Errorf("evaluations per point grew %.3f×, a* only %.3f×", growth, aGrowth)
	}
}
