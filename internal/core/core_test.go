package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"alid/internal/affinity"
	"alid/internal/lid"
	"alid/internal/lsh"
	"alid/internal/matrix"
)

// blobs generates nPerBlob points around each of the given centers with the
// given spread, followed by nNoise uniform noise points over the bounding box.
// Returns points and ground-truth labels (-1 for noise).
func blobs(rng *rand.Rand, centers [][]float64, nPerBlob int, spread float64, nNoise float64) ([][]float64, []int) {
	var pts [][]float64
	var labels []int
	dim := len(centers[0])
	lo, hi := math.Inf(1), math.Inf(-1)
	for c, ctr := range centers {
		for i := 0; i < nPerBlob; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = ctr[j] + rng.NormFloat64()*spread
				if p[j] < lo {
					lo = p[j]
				}
				if p[j] > hi {
					hi = p[j]
				}
			}
			pts = append(pts, p)
			labels = append(labels, c)
		}
	}
	for i := 0; i < int(nNoise); i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = lo + rng.Float64()*(hi-lo)
		}
		pts = append(pts, p)
		labels = append(labels, -1)
	}
	return pts, labels
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.3, P: 2}
	cfg.LSH = lsh.Config{Projections: 6, Tables: 10, R: 4, Seed: 1}
	cfg.Delta = 200
	cfg.DensityThreshold = 0.75
	return cfg
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Delta != 800 || c.MaxOuter != 10 || c.Kernel.K != 1 || c.Tol <= 0 {
		t.Fatalf("withDefaults gave %+v", c)
	}
	// Regression: a zero-value Config must take the documented 0.75 density
	// threshold, not report every peeled subgraph.
	if c.DensityThreshold != 0.75 {
		t.Fatalf("withDefaults left DensityThreshold at %v, want 0.75", c.DensityThreshold)
	}
	// Explicit values survive.
	c2 := Config{Delta: 5, MaxOuter: 3, DensityThreshold: 0.4}.withDefaults()
	if c2.Delta != 5 || c2.MaxOuter != 3 || c2.DensityThreshold != 0.4 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", c2)
	}
}

// A zero-value Config (density threshold included) must behave like the
// documented defaults end to end. The fixture is a set of isolated close
// pairs: a 2-point subgraph has π = a/2 ≤ 0.5, below the 0.75 default, so
// nothing may be reported — before the DensityThreshold default fix, the
// zero threshold reported every peeled pair.
func TestZeroConfigFiltersByDensity(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 12; i++ {
		base := float64(i) * 100
		pts = append(pts, []float64{base, 0}, []float64{base + 0.1, 0})
	}
	det, err := NewDetector(pts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 0 {
		t.Fatalf("zero-value Config reported %d clusters below the default density threshold (first: density=%v size=%d)",
			len(clusters), clusters[0].Density, clusters[0].Size())
	}
}

func TestThetaGrowth(t *testing.T) {
	prev := 0.0
	for c := 1; c <= 30; c++ {
		th := thetaGrowth(c)
		if th <= prev {
			t.Fatalf("θ not increasing at c=%d", c)
		}
		if th < 0 || th > 1 {
			t.Fatalf("θ(%d) = %v out of [0,1]", c, th)
		}
		prev = th
	}
	if thetaGrowth(40) < 0.999 {
		t.Errorf("θ(40) = %v, want ≈ 1", thetaGrowth(40))
	}
	// Paper's schedule: θ(8) = 0.5.
	if math.Abs(thetaGrowth(8)-0.5) > 1e-12 {
		t.Errorf("θ(8) = %v, want 0.5", thetaGrowth(8))
	}
}

// Proposition 1: points inside the inner ball are infective, points outside
// the outer ball are not. Verified empirically on a converged subgraph.
func TestROIProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, _ := blobs(rng, [][]float64{{0, 0}, {12, 12}}, 30, 0.5, 20)
	kern := affinity.Kernel{K: 1, P: 2}
	o, err := affinity.NewOracle(pts, kern)
	if err != nil {
		t.Fatal(err)
	}
	var sc civsScratch
	sc.fit(o.N())
	st, err := lid.NewState(o, 0, sc.pos)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	st.Extend(all)
	st.Solve(context.Background(), 5000, 1e-10)
	sup, w := st.SupportWeights()
	pi := st.Density()
	roi := EstimateROI(o.Mat, sup, w, pi, kern, 5)
	if !(roi.Rin <= roi.Rout) {
		t.Fatalf("Rin %v > Rout %v", roi.Rin, roi.Rout)
	}
	if !(roi.R >= roi.Rin && roi.R <= roi.Rout) {
		t.Fatalf("R %v outside [Rin=%v, Rout=%v]", roi.R, roi.Rin, roi.Rout)
	}
	inSupport := make(map[int]bool, len(sup))
	for _, i := range sup {
		inSupport[i] = true
	}
	for j := range pts {
		dist := kern.Distance(pts[j], roi.D)
		// π(s_j, x̂) computed directly.
		var gj float64
		for tt, i := range sup {
			if i != j {
				gj += w[tt] * kern.Affinity(pts[j], pts[i])
			}
		}
		payoff := gj - pi
		// Property 1 applies to candidate vertices outside the support: for
		// j ∈ α the paper's derivation counts the diagonal as e⁰ = 1, while
		// Eq. 1 zeroes it, so converged members (payoff 0) may sit inside the
		// inner ball. ALID only ever queries the ROI for new vertices.
		if !inSupport[j] && dist < roi.Rin-1e-9 && payoff <= 0 {
			t.Errorf("point %d inside inner ball (d=%v < Rin=%v) but payoff %v ≤ 0", j, dist, roi.Rin, payoff)
		}
		// Property 2 holds for every vertex (the triangle bound is valid with
		// a zero diagonal): outside the outer ball means non-infective.
		if dist > roi.Rout+1e-9 && payoff >= 0 {
			t.Errorf("point %d outside outer ball (d=%v > Rout=%v) but payoff %v ≥ 0", j, dist, roi.Rout, payoff)
		}
	}
}

func TestROIDegenerate(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	k := affinity.DefaultKernel()
	m, err := matrix.FromRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	roi := EstimateROI(m, []int{0}, []float64{1}, 0, k, 1)
	if !math.IsInf(roi.R, 1) {
		t.Fatalf("degenerate ROI should be unbounded, got %v", roi.R)
	}
}

func TestDetectFromFindsSeedBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, labels := blobs(rng, [][]float64{{0, 0}, {15, 0}, {0, 15}}, 40, 0.3, 30)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := det.DetectFrom(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dominant sets select the coherent core of a Gaussian blob, not every
	// sample; a majority of the blob with perfect purity is the correct
	// behaviour (cf. the paper's AVG-F ≈ 0.7–0.9 on synthetic mixtures).
	if cl.Size() < 20 {
		t.Fatalf("cluster from seed 0 has %d members, want ≥ 20 of blob 0", cl.Size())
	}
	for _, m := range cl.Members {
		if labels[m] != 0 {
			t.Errorf("member %d has label %d, want 0", m, labels[m])
		}
	}
	if cl.Density <= 0.8 {
		t.Errorf("blob density = %v, want > 0.8", cl.Density)
	}
	var wsum float64
	for _, w := range cl.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-6 {
		t.Errorf("weights sum to %v", wsum)
	}
}

func TestDetectAllFindsAllBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts, labels := blobs(rng, [][]float64{{0, 0}, {15, 0}, {0, 15}, {15, 15}}, 35, 0.3, 60)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Peeling may split a blob into a dense core plus a smaller secondary
	// fragment (both above the 0.75 density threshold); what must hold is
	// that every surviving cluster is pure blob material and that all four
	// blobs are covered.
	if len(clusters) < 4 {
		t.Fatalf("detected %d clusters, want ≥ 4", len(clusters))
	}
	covered := make(map[int]bool)
	for _, cl := range clusters {
		counts := map[int]int{}
		for _, m := range cl.Members {
			counts[labels[m]]++
		}
		major, majorN := -2, 0
		for l, c := range counts {
			if c > majorN {
				major, majorN = l, c
			}
		}
		if major == -1 {
			t.Fatalf("noise cluster above density threshold: density=%v size=%d", cl.Density, cl.Size())
		}
		if float64(majorN) < 0.9*float64(cl.Size()) {
			t.Errorf("impure cluster: %v", counts)
		}
		covered[major] = true
	}
	for b := 0; b < 4; b++ {
		if !covered[b] {
			t.Errorf("blob %d not covered by any detected cluster", b)
		}
	}
	// Densities sorted decreasing.
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Density > clusters[i-1].Density {
			t.Error("clusters not sorted by density")
		}
	}
}

func TestPeelingConsumesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts, _ := blobs(rng, [][]float64{{0, 0}}, 20, 0.4, 20)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// No point may appear in two clusters after peeling.
	seen := make(map[int]bool)
	for _, cl := range clusters {
		for _, m := range cl.Members {
			if seen[m] {
				t.Fatalf("point %d in two peeled clusters", m)
			}
			seen[m] = true
		}
	}
}

func TestLabels(t *testing.T) {
	clusters := []*Cluster{
		{Members: []int{0, 1, 2}, Density: 0.9},
		{Members: []int{2, 3}, Density: 0.8}, // overlaps on 2; lower density
	}
	lbl := Labels(6, clusters)
	want := []int{0, 0, 0, 1, -1, -1}
	for i := range want {
		if lbl[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", lbl, want)
		}
	}
}

func TestDetectFromInactiveSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts, _ := blobs(rng, [][]float64{{0, 0}}, 10, 0.3, 0)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, len(pts))
	if _, err := det.DetectFrom(context.Background(), 0, active); err == nil {
		t.Fatal("inactive seed must error")
	}
}

func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts, _ := blobs(rng, [][]float64{{0, 0}, {10, 10}}, 50, 0.5, 50)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.DetectFrom(ctx, 0, nil); err == nil {
		t.Error("cancelled context should abort DetectFrom")
	}
	if _, err := det.DetectAll(ctx); err == nil {
		t.Error("cancelled context should abort DetectAll")
	}
}

func TestActiveFilterExcludesPeeled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts, _ := blobs(rng, [][]float64{{0, 0}}, 30, 0.4, 0)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, len(pts))
	for i := range active {
		active[i] = i%2 == 0 // only even points active
	}
	cl, err := det.DetectFrom(context.Background(), 0, active)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cl.Members {
		if m%2 != 0 {
			t.Fatalf("peeled (inactive) point %d in cluster", m)
		}
	}
}

func TestNewDetectorWithIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, _ := blobs(rng, [][]float64{{0, 0}}, 20, 0.3, 0)
	cfg := testConfig()
	m, err := matrix.FromRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := lsh.BuildMatrix(m, cfg.LSH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetectorMatrixWithIndex(m, cfg, idx); err != nil {
		t.Fatal(err)
	}
	short, err := matrix.FromRows(pts[:10])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetectorMatrixWithIndex(short, cfg, idx); err == nil {
		t.Error("size mismatch must error")
	}
}

func TestClusterInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts, _ := blobs(rng, [][]float64{{0, 0}, {12, 12}}, 30, 0.4, 10)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := det.Oracle().Computed()
	cl, err := det.DetectFrom(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.LIDIterations <= 0 || cl.OuterIterations <= 0 || cl.PeakEntries <= 0 {
		t.Fatalf("missing instrumentation: %+v", cl)
	}
	if det.Oracle().Computed() <= before {
		t.Error("oracle did not count kernel evaluations")
	}
	if det.PeakEntries() < cl.PeakEntries {
		t.Error("detector peak not updated")
	}
	// ALID must touch far fewer entries than the full matrix.
	n := int64(len(pts))
	if det.Oracle().Computed() >= n*n {
		t.Errorf("ALID computed %d entries, full matrix is %d", det.Oracle().Computed(), n*n)
	}
}

func TestMembersSortedAndWeightsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts, _ := blobs(rng, [][]float64{{0, 0}}, 25, 0.4, 5)
	det, err := NewDetector(pts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := det.DetectFrom(context.Background(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cl.Members); i++ {
		if cl.Members[i] <= cl.Members[i-1] {
			t.Fatal("members not strictly ascending")
		}
	}
	if len(cl.Members) != len(cl.Weights) {
		t.Fatal("members/weights length mismatch")
	}
}
