package dataset

import (
	"math"
	"math/rand"
	"testing"

	"alid/internal/vec"
)

func TestMixtureRegimeSizes(t *testing.T) {
	cases := []struct {
		regime Regime
		n      int
		want   int // expected a*
	}{
		{RegimeOmega, 2000, 100},                         // ω·n/20 = 2000/20
		{RegimeEta, 2000, int(math.Pow(2000, 0.9)) / 20}, // n^0.9/20
		{RegimeCap, 2000, 50},                            // P/20 = 1000/20
		{RegimeCap, 100000, 50},                          // cap independent of n
	}
	for _, c := range cases {
		cfg := DefaultMixtureConfig(c.n, c.regime)
		got := cfg.ClusterSize()
		if got != c.want {
			t.Errorf("%v n=%d: ClusterSize = %d, want %d", c.regime, c.n, got, c.want)
		}
	}
}

func TestMixtureGeneration(t *testing.T) {
	for _, regime := range []Regime{RegimeOmega, RegimeEta, RegimeCap} {
		cfg := DefaultMixtureConfig(3000, regime)
		ds, err := Mixture(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ds.N() != 3000 {
			t.Errorf("%v: N = %d", regime, ds.N())
		}
		if ds.NumClusters != 20 {
			t.Errorf("%v: clusters = %d", regime, ds.NumClusters)
		}
		sizes := ds.ClusterSizes()
		aStar := cfg.ClusterSize()
		for c, s := range sizes {
			if s != aStar {
				t.Errorf("%v: cluster %d size %d, want %d", regime, c, s, aStar)
			}
		}
		wantNoise := 3000 - 20*aStar
		if ds.NoiseCount() != wantNoise {
			t.Errorf("%v: noise = %d, want %d", regime, ds.NoiseCount(), wantNoise)
		}
		if ds.SuggestedK <= 0 || ds.SuggestedLSHR <= 0 {
			t.Errorf("%v: scales not tuned: %v %v", regime, ds.SuggestedK, ds.SuggestedLSHR)
		}
	}
}

func TestMixtureOmegaOneHasNoNoise(t *testing.T) {
	ds, err := Mixture(DefaultMixtureConfig(2000, RegimeOmega))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NoiseCount() != 0 {
		t.Fatalf("ω=1 should have zero noise, got %d", ds.NoiseCount())
	}
}

func TestMixtureDeterministic(t *testing.T) {
	a, _ := Mixture(DefaultMixtureConfig(500, RegimeCap))
	b, _ := Mixture(DefaultMixtureConfig(500, RegimeCap))
	for i := range a.Points {
		for j := range a.Points[i] {
			if a.Points[i][j] != b.Points[i][j] {
				t.Fatal("mixture not deterministic")
			}
		}
	}
}

func TestMixtureSeparation(t *testing.T) {
	// Intra-cluster distances must be much smaller than noise-to-cluster
	// distances, or the whole premise of dominant cluster detection fails.
	ds, err := Mixture(DefaultMixtureConfig(2000, RegimeCap))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var intra, cross float64
	n := 0
	for trial := 0; trial < 300; trial++ {
		i, j := rng.Intn(ds.N()), rng.Intn(ds.N())
		if i == j {
			continue
		}
		d := vec.L2(ds.Points[i], ds.Points[j])
		if ds.Labels[i] >= 0 && ds.Labels[i] == ds.Labels[j] {
			intra += d
			n++
		} else if ds.Labels[i] != ds.Labels[j] {
			cross += d
		}
	}
	if n == 0 {
		t.Skip("no intra pairs sampled")
	}
	if intra/float64(n) > 80 {
		t.Errorf("intra-cluster distances too large: %v", intra/float64(n))
	}
}

func TestMixtureErrors(t *testing.T) {
	if _, err := Mixture(MixtureConfig{N: 10, Clusters: 20, Dim: 5}); err == nil {
		t.Error("tiny N accepted")
	}
	if _, err := Mixture(MixtureConfig{N: 100, Clusters: 0, Dim: 5}); err == nil {
		t.Error("zero clusters accepted")
	}
}

func TestNARTLike(t *testing.T) {
	cfg := DefaultNARTConfig()
	cfg.N = 1200
	cfg.EventDocs = 260
	ds, err := NARTLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 1200 || ds.NumClusters != 13 {
		t.Fatalf("N=%d clusters=%d", ds.N(), ds.NumClusters)
	}
	gt := 0
	for _, s := range ds.ClusterSizes() {
		gt += s
		if s == 0 {
			t.Error("empty event cluster")
		}
	}
	if gt != 260 {
		t.Errorf("ground truth docs = %d, want 260", gt)
	}
	// Topic vectors are L1-normalized probability vectors.
	for i := 0; i < 50; i++ {
		p := ds.Points[i]
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative topic weight")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("topic vector sums to %v", sum)
		}
	}
}

func TestNDILike(t *testing.T) {
	ds, err := NDILike(SubNDIConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClusters != 6 {
		t.Fatalf("clusters = %d", ds.NumClusters)
	}
	if got := ds.N() - ds.NoiseCount(); got != 1420 {
		t.Errorf("positives = %d, want 1420", got)
	}
	if ds.NoiseCount() != 8520 {
		t.Errorf("noise = %d, want 8520", ds.NoiseCount())
	}
	// Descriptors in [0,1].
	for _, p := range ds.Points[:100] {
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatal("descriptor out of [0,1]")
			}
		}
	}
}

func TestSIFTLike(t *testing.T) {
	ds, err := SIFTLike(DefaultSIFTConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 4000 {
		t.Fatalf("N = %d", ds.N())
	}
	// L2-normalized, non-negative.
	for _, p := range ds.Points[:100] {
		if math.Abs(vec.Norm2(p)-1) > 1e-9 {
			t.Fatalf("norm = %v", vec.Norm2(p))
		}
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative SIFT component")
			}
		}
	}
	if got := float64(ds.N()-ds.NoiseCount()) / float64(ds.N()); math.Abs(got-0.3) > 0.02 {
		t.Errorf("positive fraction = %v, want ≈ 0.3", got)
	}
}

func TestWithNoiseIncrease(t *testing.T) {
	ds, _ := Mixture(DefaultMixtureConfig(1000, RegimeCap))
	gt := ds.N() - ds.NoiseCount()
	noisy := ds.WithNoise(3, 5)
	if got := noisy.NoiseCount(); got != 3*gt {
		t.Fatalf("noise = %d, want %d", got, 3*gt)
	}
	// Original untouched.
	if ds.NoiseCount() == noisy.NoiseCount() {
		t.Error("WithNoise mutated the original")
	}
}

func TestWithNoiseDecrease(t *testing.T) {
	ds, _ := Mixture(DefaultMixtureConfig(2000, RegimeCap)) // 1000 positive, 1000 noise
	gt := ds.N() - ds.NoiseCount()
	reduced := ds.WithNoise(0.5, 5)
	if got := reduced.NoiseCount(); got != gt/2 {
		t.Fatalf("noise = %d, want %d", got, gt/2)
	}
	zero := ds.WithNoise(0, 5)
	if zero.NoiseCount() != 0 {
		t.Fatalf("noise = %d, want 0", zero.NoiseCount())
	}
	// Positives preserved exactly.
	if zero.N()-zero.NoiseCount() != gt {
		t.Error("positives lost")
	}
}

func TestRandGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, shape := range []float64{0.3, 1.0, 4.5} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += randGamma(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.08*shape+0.03 {
			t.Errorf("Gamma(%v) sample mean = %v", shape, mean)
		}
	}
}

// ClusterSizes returns the size of every ground-truth cluster.
func (d *Dataset) ClusterSizes() []int {
	sizes := make([]int, d.NumClusters)
	for _, l := range d.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// The suggested scales are a function of the generator's seed: building
// each mixture regime and each real-world stand-in twice in one process
// gives bit-identical SuggestedK and SuggestedLSHR.
func TestSuggestedScalesDeterministic(t *testing.T) {
	nart := DefaultNARTConfig()
	nart.N, nart.EventDocs = 1200, 260
	gens := map[string]func() (*Dataset, error){
		"nart": func() (*Dataset, error) { return NARTLike(nart) },
		"ndi":  func() (*Dataset, error) { return NDILike(SubNDIConfig()) },
		"sift": func() (*Dataset, error) { return SIFTLike(DefaultSIFTConfig(4000)) },
	}
	for _, r := range []Regime{RegimeOmega, RegimeEta, RegimeCap} {
		gens[r.String()] = func() (*Dataset, error) { return Mixture(DefaultMixtureConfig(2000, r)) }
	}
	for name, gen := range gens {
		a, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.SuggestedK) != math.Float64bits(b.SuggestedK) ||
			math.Float64bits(a.SuggestedLSHR) != math.Float64bits(b.SuggestedLSHR) {
			t.Errorf("%s: SuggestedK %v then %v, SuggestedLSHR %v then %v",
				name, a.SuggestedK, b.SuggestedK, a.SuggestedLSHR, b.SuggestedLSHR)
		}
	}
}
