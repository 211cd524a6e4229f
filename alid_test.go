package alid

import (
	"context"
	"math"
	"testing"

	"alid/internal/eval"
	"alid/internal/testutil"
)

func testPoints() ([][]float64, []int) {
	return testutil.Blobs(11, [][]float64{{0, 0}, {15, 0}, {0, 15}}, 35, 0.3, 40, 0, 15)
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.KernelScale = 0 },
		func(c *Config) { c.NormOrder = 0.5 },
		func(c *Config) { c.LSHProjections = 0 },
		func(c *Config) { c.LSHTables = -1 },
		func(c *Config) { c.LSHSegment = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.MaxOuter = 0 },
		func(c *Config) { c.MaxLID = 0 },
		func(c *Config) { c.Tolerance = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAutoConfig(t *testing.T) {
	pts, _ := testPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Blob nearest-neighbor distances ~0.1-0.3 → scale in a sane band.
	if cfg.KernelScale < 0.05 || cfg.KernelScale > 10 {
		t.Errorf("KernelScale = %v", cfg.KernelScale)
	}
	if _, err := AutoConfig(nil); err == nil {
		t.Error("AutoConfig accepted empty input")
	}
	// Identical points must not produce a degenerate config.
	same := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	cfg2, err := AutoConfig(same)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndDetectAll(t *testing.T) {
	pts, labels := testPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 3 {
		t.Fatalf("clusters = %d, want ≥ 3", len(clusters))
	}
	score, err := eval.Score(labels, Labels(len(pts), clusters))
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.55 {
		t.Fatalf("AVG-F = %v, want ≥ 0.55", score.AVGF)
	}
	if score.NoiseFiltered < 0.85 {
		t.Fatalf("NoiseFiltered = %v, want ≥ 0.85", score.NoiseFiltered)
	}
	// Weights sum to 1 per cluster.
	for _, cl := range clusters {
		var sum float64
		for _, w := range cl.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("weights sum %v", sum)
		}
	}
	st := det.Stats()
	if st.AffinityComputed <= 0 || st.PeakSubmatrixEntries <= 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	n := int64(len(pts))
	if st.AffinityComputed >= n*n {
		t.Errorf("computed %d affinities ≥ n² = %d; localization failed", st.AffinityComputed, n*n)
	}
}

func TestDetectFrom(t *testing.T) {
	pts, labels := testPoints()
	cfg, _ := AutoConfig(pts)
	det, err := NewDetector(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := det.DetectFrom(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() < 10 {
		t.Fatalf("cluster size = %d", cl.Size())
	}
	for _, m := range cl.Members {
		if labels[m] != 0 {
			t.Fatalf("member %d from wrong blob (%d)", m, labels[m])
		}
	}
	if _, err := det.DetectFrom(context.Background(), -1); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := det.DetectFrom(context.Background(), len(pts)); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestNewDetectorErrors(t *testing.T) {
	if _, err := NewDetector(nil, DefaultConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := DefaultConfig()
	bad.KernelScale = -1
	pts, _ := testPoints()
	if _, err := NewDetector(pts, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDetectParallelMatchesQuality(t *testing.T) {
	pts, labels := testPoints()
	cfg, _ := AutoConfig(pts)
	res, err := DetectParallel(context.Background(), pts, cfg, ParallelOptions{Executors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds == 0 || len(res.Clusters) == 0 {
		t.Fatalf("degenerate result: %d seeds %d clusters", res.Seeds, len(res.Clusters))
	}
	score, err := eval.Score(labels, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.55 {
		t.Fatalf("PALID AVG-F = %v", score.AVGF)
	}
	if _, err := DetectParallel(context.Background(), pts, cfg, ParallelOptions{}); err == nil {
		t.Error("zero executors accepted")
	}
}

// Both PALID entry points refuse a zero or negative executor count with an
// error and no result.
func TestDetectParallelInvalidExecutors(t *testing.T) {
	pts, _ := testPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float64, 0, len(pts)*len(pts[0]))
	for _, p := range pts {
		flat = append(flat, p...)
	}
	for _, executors := range []int{0, -2} {
		opts := ParallelOptions{Executors: executors}
		if res, err := DetectParallel(context.Background(), pts, cfg, opts); err == nil || res != nil {
			t.Errorf("DetectParallel, Executors %d: result %v, err %v; want an error", executors, res, err)
		}
		if res, err := DetectParallelFlat(context.Background(), flat, len(pts), len(pts[0]), cfg, opts); err == nil || res != nil {
			t.Errorf("DetectParallelFlat, Executors %d: result %v, err %v; want an error", executors, res, err)
		}
	}
}

func TestLabelsHelper(t *testing.T) {
	clusters := []Cluster{
		{Members: []int{0, 1}, Density: 0.9},
		{Members: []int{1, 2}, Density: 0.95},
	}
	lbl := Labels(4, clusters)
	want := []int{0, 1, 1, -1}
	for i := range want {
		if lbl[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", lbl, want)
		}
	}
}
