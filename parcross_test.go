package alid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"alid/internal/core"
	"alid/internal/dataset"
	"alid/internal/index"
	"alid/internal/lid"
	"alid/internal/testutil"
	"alid/internal/vec"
)

// Standing invariant: the parallel layer (Config.Parallelism) is
// bit-deterministic. These crosschecks run the serial path once, then the
// parallel path (4 workers) under GOMAXPROCS ∈ {1, 4, 8}, and demand
// byte-identical output — clusters, weights, densities, assignments, stream
// labels — for DetectAll, DetectParallel AND the streaming commit path.
// The fan-out gates are lowered for the run (lowerParGates) so every
// parallel path genuinely executes on this fixture — at production gates a
// small workload could pass vacuously serial; per-path bit-identity is
// additionally pinned by the package-level crosschecks under internal/core,
// internal/lid and internal/affinity.

const parcrossWorkers = 4

func parcrossPoints() [][]float64 {
	pts, _ := testutil.Blobs(21, [][]float64{{0, 0, 0}, {11, 0, 0}, {0, 11, 0}, {0, 0, 11}}, 550, 0.4, 600, 0, 11)
	return pts
}

// lowerParGates forces the CIVS filter and the LID scans to fan out at this
// fixture's sizes (β ≈ several hundred, raw unions ≈ 500). Gates and grains
// change scheduling only, never results — which is what the crosscheck
// proves.
func lowerParGates(t *testing.T) {
	t.Helper()
	t.Cleanup(core.SetCIVSGateForTest(64))
	t.Cleanup(lid.SetParGatesForTest(64, 128, 64, 256))
}

func parcrossGOMAXPROCS(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		// Restore immediately after the body rather than at test end so a
		// failing subtest cannot leak an odd GOMAXPROCS into later tests.
		func() {
			defer runtime.GOMAXPROCS(old)
			check(t)
		}()
		if t.Failed() {
			t.Fatalf("parallel output diverged from serial at GOMAXPROCS=%d", procs)
		}
	}
}

// peelMixture is a small paper mixture at d=10: in the eta regime its
// overlapping cluster pairs, single clusters and noise make many LSH
// components; in the cap regime (5-point clusters) AutoConfig tunes to the
// noise scale and one component holds every point.
func peelMixture(t *testing.T, regime dataset.Regime, n int) [][]float64 {
	t.Helper()
	mc := dataset.DefaultMixtureConfig(n, regime)
	mc.Dim, mc.P, mc.Seed = 10, 100, 7
	ds, err := dataset.Mixture(mc)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points
}

// DetectAll at Parallelism 4 peels LSH components concurrently; clusters,
// their order, weights, densities and both Stats fields must equal the
// serial run's at every GOMAXPROCS, on fixtures of many components and of
// one giant component.
func TestGOMAXPROCSCrosscheckDetectAll(t *testing.T) {
	lowerParGates(t)
	for _, fx := range []struct {
		name  string
		pts   [][]float64
		shape func(comps [][]int32) bool
	}{
		{"blobs", parcrossPoints(), func([][]int32) bool { return true }},
		{"eta", peelMixture(t, dataset.RegimeEta, 600), func(comps [][]int32) bool {
			multi := 0
			for _, c := range comps {
				if len(c) > 1 {
					multi++
				}
			}
			return multi >= 2 && multi < len(comps)
		}},
		{"cap", peelMixture(t, dataset.RegimeCap, 800), func(comps [][]int32) bool { return len(comps) == 1 }},
	} {
		cfg, err := AutoConfig(fx.pts)
		if err != nil {
			t.Fatal(err)
		}
		detect := func(parallelism int) ([]Cluster, Stats) {
			c := cfg
			c.Parallelism = parallelism
			det, err := NewDetector(fx.pts, c)
			if err != nil {
				t.Fatal(err)
			}
			if !fx.shape(index.Components(det.inner.Index())) {
				t.Fatalf("%s: LSH components lack the fixture's shape", fx.name)
			}
			cls, err := det.DetectAll(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return cls, det.Stats()
		}
		serial, serialStats := detect(0)
		if len(serial) == 0 {
			t.Fatalf("%s: no clusters detected — crosscheck is vacuous", fx.name)
		}
		parcrossGOMAXPROCS(t, func(t *testing.T) {
			got, gotStats := detect(parcrossWorkers)
			sameClusters(t, serial, got, "DetectAll "+fx.name)
			if gotStats != serialStats {
				t.Fatalf("%s: stats %+v, serial %+v", fx.name, gotStats, serialStats)
			}
		})
	}
}

func TestGOMAXPROCSCrosscheckDetectParallel(t *testing.T) {
	lowerParGates(t)
	pts := parcrossPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := ParallelOptions{Executors: 2}
	detect := func(parallelism int) *ParallelResult {
		c := cfg
		c.Parallelism = parallelism
		res, err := DetectParallel(context.Background(), pts, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := detect(0)
	if len(serial.Clusters) == 0 {
		t.Fatal("no clusters detected — crosscheck is vacuous")
	}
	parcrossGOMAXPROCS(t, func(t *testing.T) {
		got := detect(parcrossWorkers)
		sameClusters(t, serial.Clusters, got.Clusters, "DetectParallel")
		if got.Seeds != serial.Seeds {
			t.Fatalf("seed counts differ: %d vs %d", got.Seeds, serial.Seeds)
		}
		for i := range serial.Assign {
			if got.Assign[i] != serial.Assign[i] {
				t.Fatalf("assignment differs at point %d: %d vs %d", i, got.Assign[i], serial.Assign[i])
			}
		}
	})
}

func TestGOMAXPROCSCrosscheckStreamCommits(t *testing.T) {
	lowerParGates(t)
	pts := parcrossPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) ([]Cluster, []int) {
		c := cfg
		c.Parallelism = parallelism
		sc, err := NewStreamClusterer(nil, c, StreamOptions{BatchSize: 500})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, p := range pts {
			if err := sc.Add(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return sc.Clusters(), sc.Labels()
	}
	serial, serialLabels := run(0)
	if len(serial) == 0 {
		t.Fatal("no clusters maintained — crosscheck is vacuous")
	}
	parcrossGOMAXPROCS(t, func(t *testing.T) {
		got, gotLabels := run(parcrossWorkers)
		sameClusters(t, serial, got, "stream commits")
		for i := range serialLabels {
			if gotLabels[i] != serialLabels[i] {
				t.Fatalf("label differs at point %d: %d vs %d", i, gotLabels[i], serialLabels[i])
			}
		}
	})
}

// autoConfigBySort is the sort-based reference for AutoConfig: every sample
// sorts all n−1 L2 distances and reads the q-th. AutoConfig's top-q scan
// with early-exit distances must reproduce it bit for bit.
func autoConfigBySort(points [][]float64) Config {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	rng := rand.New(rand.NewSource(1))
	sample := min(len(points), 200)
	idx := rng.Perm(len(points))[:sample]
	q := min(autoQ, len(points)-1)
	var qDists []float64
	dists := make([]float64, 0, len(points)-1)
	for _, i := range idx {
		dists = dists[:0]
		for j := range points {
			if i != j {
				dists = append(dists, vec.L2(points[i], points[j]))
			}
		}
		sort.Float64s(dists)
		if d := dists[q-1]; d > 0 {
			qDists = append(qDists, d)
		}
	}
	if len(qDists) == 0 {
		cfg.KernelScale = 1
		cfg.LSHSegment = 1
		return cfg
	}
	sort.Float64s(qDists)
	scale := clusterScale(qDists)
	cfg.KernelScale = -math.Log(0.9) / scale
	cfg.LSHSegment = 8 * scale
	return cfg
}

// autoConfigFixtures covers the paper's three mixture regimes at d=100, the
// 2-D bench blobs, tie-heavy integer grids and all-identical points, at the
// n where q = n−1 and at dimensions off the 4-lane unroll and the
// 16-coordinate early-exit check.
func autoConfigFixtures(t *testing.T) map[string][][]float64 {
	t.Helper()
	fx := map[string][][]float64{"blobs-d2": benchPoints(2000)}
	for _, m := range []struct {
		regime dataset.Regime
		n      int
	}{{dataset.RegimeEta, 3000}, {dataset.RegimeOmega, 1000}, {dataset.RegimeCap, 1500}} {
		ds, err := dataset.Mixture(dataset.DefaultMixtureConfig(m.n, m.regime))
		if err != nil {
			t.Fatal(err)
		}
		fx[fmt.Sprintf("%s-d100", m.regime)] = ds.Points
	}
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 3, 5, 17} {
		for _, n := range []int{2, 3, 11, 12, 300} {
			row := make([]float64, d)
			for j := range row {
				row[j] = 2.5
			}
			grid := make([][]float64, n)
			same := make([][]float64, n)
			for i := range grid {
				grid[i] = make([]float64, d)
				for j := range grid[i] {
					grid[i][j] = float64(rng.Intn(3))
				}
				same[i] = row
			}
			fx[fmt.Sprintf("grid-d%d-n%d", d, n)] = grid
			fx[fmt.Sprintf("identical-d%d-n%d", d, n)] = same
		}
	}
	return fx
}

// AutoConfig fans its samples out over GOMAXPROCS; the tuned Config must be
// bit-identical to the sort-based reference at every setting.
func TestGOMAXPROCSCrosscheckAutoConfig(t *testing.T) {
	fx := autoConfigFixtures(t)
	want := make(map[string]Config, len(fx))
	for name, pts := range fx {
		want[name] = autoConfigBySort(pts)
	}
	parcrossGOMAXPROCS(t, func(t *testing.T) {
		for name, pts := range fx {
			got, err := AutoConfig(pts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want[name] {
				t.Errorf("%s: AutoConfig %+v, sort-based reference %+v", name, got, want[name])
			}
		}
	})
}
