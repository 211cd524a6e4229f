package alid

import (
	"math"
	"strings"
	"testing"

	"alid/internal/engine"
)

// DensityThreshold is a probability-like knob (π(x) is a weighted mean of
// affinities in (0,1)): anything outside [0,1] is a configuration mistake
// and must be rejected at Validate, not silently report everything (< 0) or
// nothing (> 1).
func TestValidateDensityThresholdRange(t *testing.T) {
	for _, bad := range []float64{-0.01, -5, 1.01, 7, math.NaN()} {
		cfg := DefaultConfig()
		cfg.DensityThreshold = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("DensityThreshold %v accepted", bad)
		}
	}
	for _, ok := range []float64{0, 0.5, 0.75, 1} {
		cfg := DefaultConfig()
		cfg.DensityThreshold = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("DensityThreshold %v rejected: %v", ok, err)
		}
	}
}

// Parallelism values below −1 have no defined meaning (−1 = GOMAXPROCS,
// 0/1 = serial, ≥ 2 = explicit width): they must be rejected at Validate
// instead of silently reaching the worker-pool constructor.
func TestValidateParallelismRange(t *testing.T) {
	for _, bad := range []int{-2, -5, -100} {
		cfg := DefaultConfig()
		cfg.Parallelism = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("Parallelism %d accepted", bad)
		}
	}
	for _, ok := range []int{-1, 0, 1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("Parallelism %d rejected: %v", ok, err)
		}
	}
}

// AutoConfig measures distances between rows, so ragged or
// zero-dimensional input must come back as an error before the first
// distance: the distance kernel panics on rows of different lengths. A NaN
// or ±Inf coordinate must be refused too: NaN distances have no
// nearest-neighbour order, so one such row would shift the tuned scale
// without an error. So must a finite row whose squared norm overflows,
// which NewDetector refuses.
func TestAutoConfigRejectsBadShape(t *testing.T) {
	for name, tc := range map[string]struct {
		pts  [][]float64
		want string
	}{
		"ragged":   {[][]float64{{0, 0}, {1, 1}, {2}, {3, 3}, {4, 4}}, "point 2"},
		"zero-dim": {[][]float64{{}, {}, {}}, "zero-dimensional"},
		"nan":      {append(benchPoints(2000), []float64{math.NaN(), 0}), "point 2000 is not finite"},
		"-inf":     {[][]float64{{0, 0}, {1, math.Inf(-1)}, {2, 2}, {3, 3}}, "point 1 is not finite"},
		"+inf":     {[][]float64{{0, 0}, {1, 1}, {2, 2}, {math.Inf(1), 3}}, "point 3 is not finite"},
		"overflow": {[][]float64{{0, 0}, {1, 1}, {1e200, 0}, {3, 3}}, "point 2 is not finite"},
	} {
		_, err := AutoConfig(tc.pts)
		if err == nil {
			t.Errorf("%s input accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s input: error %q does not name %q", name, err, tc.want)
		}
	}
}

// clusterScale must select the MEDIAN OF THE LOWER MODE of a bimodal q-NN
// distance distribution. The fixtures pin the exact selected element; the
// first one is the small-sample case where the former sorted[bestIdx/2+1]
// overshot the gap and returned a NOISE-mode distance.
func TestClusterScaleBimodal(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		want   float64
	}{
		{
			// n=10: lo = n/20 = 0, so the gap right after the very first
			// value is eligible (bestIdx = 0). The lower mode is the single
			// value 1; the old code returned sorted[1] = 8 — the noise mode.
			name:   "gap after first value (old overshoot)",
			sorted: []float64{1, 8, 9, 10, 11, 12, 13, 14, 15, 16},
			want:   1,
		},
		{
			// Two clean modes of six: gap at bestIdx = 5, lower mode
			// sorted[0..5], median element sorted[2].
			name:   "six-six bimodal",
			sorted: []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 30, 31, 32, 33, 34, 35},
			want:   1.2,
		},
		{
			// No gap ratio above 1.5: unimodal fallback to the lower quartile.
			name:   "unimodal fallback",
			sorted: []float64{10, 11, 12, 13, 14, 15, 16, 17},
			want:   12,
		},
	}
	for _, tc := range cases {
		if got := clusterScale(tc.sorted); got != tc.want {
			t.Errorf("%s: clusterScale = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The selected scale must never come from above the gap: for any bimodal
// fixture with a clear split, the result has to sit in the lower mode.
func TestClusterScaleStaysBelowGap(t *testing.T) {
	for lowLen := 1; lowLen <= 12; lowLen++ {
		sorted := make([]float64, 0, lowLen+12)
		for i := 0; i < lowLen; i++ {
			sorted = append(sorted, 1+0.01*float64(i))
		}
		for i := 0; i < 12; i++ {
			sorted = append(sorted, 100+float64(i))
		}
		got := clusterScale(sorted)
		// The gap is only eligible when it lies in [n/20, 3n/4); otherwise
		// the quartile fallback applies — either way the scale must not be a
		// noise-mode distance when the lower mode holds at least a quartile.
		if lo := len(sorted) / 20; lo <= lowLen-1 || lowLen >= (len(sorted)+3)/4 {
			if got >= 100 {
				t.Errorf("lowLen=%d: clusterScale = %v picked the noise mode", lowLen, got)
			}
		}
	}
}

// Every public constructor refuses an initial batch holding a NaN or an
// infinite coordinate, or a finite row whose squared norm overflows, with
// an error naming the caller's index of the point, before anything reaches
// the matrix or the index. Point 6 of the batch lands on shard 2, at that
// shard's index 1, in the 4-shard engine.
func TestConstructorsRejectNonFiniteRows(t *testing.T) {
	cfg, err := AutoConfig(benchPoints(400))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := engine.Config{Core: cfg.toCore()}
	build := map[string]func([][]float64) error{
		"NewDetector": func(pts [][]float64) error {
			_, err := NewDetector(pts, cfg)
			return err
		},
		"NewStreamClusterer": func(pts [][]float64) error {
			_, err := NewStreamClusterer(pts, cfg, StreamOptions{})
			return err
		},
		"engine.New": func(pts [][]float64) error {
			e, err := engine.New(ecfg, pts)
			if err == nil {
				e.Close()
			}
			return err
		},
		"engine.NewSharded": func(pts [][]float64) error {
			s, err := engine.NewSharded(engine.ShardedConfig{Engine: ecfg, Shards: 4}, pts)
			if err == nil {
				s.Close()
			}
			return err
		},
	}
	for name, fn := range build {
		for _, bad := range [][]float64{{0, math.NaN()}, {0, math.Inf(1)}, {1e200, 0}} {
			pts := benchPoints(400)
			pts[6] = bad
			if err := fn(pts); err == nil {
				t.Errorf("%s accepted row %v", name, bad)
			} else if !strings.Contains(err.Error(), "point 6") {
				t.Errorf("%s, row %v: error %q does not name point 6", name, bad, err)
			}
		}
		if err := fn(benchPoints(400)); err != nil {
			t.Errorf("%s refused finite rows: %v", name, err)
		}
	}
}
