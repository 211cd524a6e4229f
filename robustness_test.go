package alid

import (
	"context"
	"testing"

	"alid/internal/dataset"
	"alid/internal/eval"
)

// Statistical robustness: detection quality must hold across independently
// seeded datasets, not just the fixtures the unit tests pin down.
func TestQualityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sum float64
	const runs = 5
	for seed := int64(1); seed <= runs; seed++ {
		mc := dataset.DefaultMixtureConfig(1500, dataset.RegimeCap)
		mc.Seed = seed * 131
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
		clusters, err := det.DetectAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval.Score(ds.Labels, Labels(ds.N(), clusters))
		if err != nil {
			t.Fatal(err)
		}
		if res.AVGF < 0.75 {
			t.Errorf("seed %d: AVG-F = %.3f, want ≥ 0.75", seed, res.AVGF)
		}
		if res.NoiseFiltered < 0.95 {
			t.Errorf("seed %d: noise filtered = %.3f, want ≥ 0.95", seed, res.NoiseFiltered)
		}
		sum += res.AVGF
	}
	if mean := sum / runs; mean < 0.85 {
		t.Errorf("mean AVG-F over %d seeds = %.3f, want ≥ 0.85", runs, mean)
	}
}

// The NART-like and SIFT-like stand-ins must also clear the bar end to end
// through the public API with automatic configuration.
func TestQualityOnRealWorldStandIns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nc := dataset.DefaultNARTConfig()
	nc.N = 1500
	nc.EventDocs = 320
	nart, err := dataset.NARTLike(nc)
	if err != nil {
		t.Fatal(err)
	}
	sift, err := dataset.SIFTLike(dataset.DefaultSIFTConfig(2500))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*dataset.Dataset{nart, sift} {
		cfg, err := AutoConfig(ds.Points)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(ds.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := det.DetectAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval.Score(ds.Labels, Labels(ds.N(), clusters))
		if err != nil {
			t.Fatal(err)
		}
		if res.AVGF < 0.55 {
			t.Errorf("%s: AVG-F = %.3f, want ≥ 0.55", ds.Name, res.AVGF)
		}
		if res.NoiseFiltered < 0.95 {
			t.Errorf("%s: noise filtered = %.3f", ds.Name, res.NoiseFiltered)
		}
	}
}
