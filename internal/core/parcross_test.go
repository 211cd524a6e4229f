package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"alid/internal/affinity"
	"alid/internal/dataset"
	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/minhash"
	"alid/internal/par"
)

// peelFixture is one DetectAll crosscheck input with its configuration.
type peelFixture struct {
	name string
	pts  [][]float64
	cfg  Config
}

// peelFixtures covers the shapes of the co-bucketing graph the component
// peel meets: three blobs in noise; a small eta mixture whose overlapping
// cluster pairs, single clusters and singleton noise make many components,
// interleaved in id order; a cap mixture tuned to its noise scale, where one
// component holds every point; and MinHash-signed near-duplicate
// communities among random sets. Each fixture asserts its shape, so none
// can pass vacuously.
func peelFixtures(t *testing.T) []peelFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	blobPts, _ := blobs(rng, [][]float64{{0, 0}, {14, 0}, {0, 14}}, 40, 0.35, 50)

	mixture := func(regime dataset.Regime, n int) [][]float64 {
		mc := dataset.DefaultMixtureConfig(n, regime)
		mc.Dim, mc.P, mc.Seed = 10, 100, 7
		ds, err := dataset.Mixture(mc)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Points
	}
	// Kernel and segment are the values AutoConfig picks for each mixture.
	eta := DefaultConfig()
	eta.Kernel = affinity.Kernel{K: 0.0101, P: 2}
	eta.LSH = lsh.Config{Projections: 12, Tables: 8, R: 83.44, Seed: 1}
	capCfg := eta
	capCfg.Kernel.K = 0.001357
	capCfg.LSH.R = 621.2

	mh := DefaultConfig()
	mh.Backend = index.BackendMinHash
	mh.MinHash = minhash.Config{Bands: 8, Rows: 4, Seed: 3}
	mh.Kernel = affinity.Kernel{K: 2, Jaccard: true}
	mh.DensityThreshold = 0.5
	mh.Delta = 200

	fx := []peelFixture{
		{"blobs", blobPts, testConfig()},
		{"eta", mixture(dataset.RegimeEta, 600), eta},
		{"cap", mixture(dataset.RegimeCap, 800), capCfg},
		{"minhash", communitySignatures(t, mh.MinHash), mh},
	}
	for _, f := range fx {
		det, err := NewDetector(f.pts, f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		comps := index.Components(det.Index())
		multi, largest := 0, 0
		for _, c := range comps {
			if len(c) > 1 {
				multi++
			}
			largest = max(largest, len(c))
		}
		if f.name == "cap" {
			if largest != len(f.pts) {
				t.Fatalf("%s: largest component %d of %d points, want all", f.name, largest, len(f.pts))
			}
		} else if multi < 2 || len(comps) == multi {
			t.Fatalf("%s: %d components, %d of ≥ 2 points: want several of each kind", f.name, len(comps), multi)
		}
	}
	return fx
}

// communitySignatures signs six communities of 25 near-duplicate sets (a
// shared 30-element base, one element swapped per member) among 60 random
// sets, shuffled so the communities interleave in id order.
func communitySignatures(t *testing.T, cfg minhash.Config) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var sets [][]string
	for c := 0; c < 6; c++ {
		for i := 0; i < 25; i++ {
			s := make([]string, 30)
			for j := range s {
				s[j] = fmt.Sprintf("c%d-e%d", c, j)
			}
			s[rng.Intn(len(s))] = fmt.Sprintf("c%d-x%d", c, rng.Intn(10))
			sets = append(sets, s)
		}
	}
	for i := 0; i < 60; i++ {
		s := make([]string, 12)
		for j := range s {
			s[j] = fmt.Sprintf("r%d", rng.Intn(100000))
		}
		sets = append(sets, s)
	}
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	sigs, err := minhash.Signatures(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sigs
}

// peelResult is everything DetectAll reports: the clusters in order and the
// two instrumentation counters.
type peelResult struct {
	clusters []*Cluster
	evals    int64
	peak     int
}

func runDetectAll(t *testing.T, f peelFixture, pool *par.Pool) peelResult {
	t.Helper()
	cfg := f.cfg
	cfg.Pool = pool
	det, err := NewDetector(f.pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return peelResult{cls, det.Oracle().Computed(), det.PeakEntries()}
}

func samePeel(t *testing.T, label string, want, got peelResult) {
	t.Helper()
	if got.evals != want.evals || got.peak != want.peak {
		t.Fatalf("%s: kernel evaluations %d, peak entries %d; serial %d, %d", label, got.evals, got.peak, want.evals, want.peak)
	}
	if len(got.clusters) != len(want.clusters) {
		t.Fatalf("%s: %d clusters, serial %d", label, len(got.clusters), len(want.clusters))
	}
	for i, s := range want.clusters {
		g := got.clusters[i]
		if g.Density != s.Density || g.Seed != s.Seed || g.OuterIterations != s.OuterIterations ||
			g.LIDIterations != s.LIDIterations || g.PeakEntries != s.PeakEntries {
			t.Fatalf("%s cluster %d: got %+v, serial %+v", label, i, g, s)
		}
		if len(g.Members) != len(s.Members) {
			t.Fatalf("%s cluster %d: size %d, serial %d", label, i, len(g.Members), len(s.Members))
		}
		for j := range s.Members {
			if g.Members[j] != s.Members[j] || g.Weights[j] != s.Weights[j] {
				t.Fatalf("%s cluster %d member %d: (%d,%v), serial (%d,%v)",
					label, i, j, g.Members[j], g.Weights[j], s.Members[j], s.Weights[j])
			}
		}
	}
}

// DetectAll with a parallel pool — LSH components peeled concurrently, each
// detection's hot loops fanned out — must be bit-identical to the serial
// run: clusters, order, members, weights, densities and both
// instrumentation counters, at any worker count and GOMAXPROCS. civsParMin
// is lowered so the parallel candidate filter engages on these small
// fixtures (the lid-level scans have their own forced crosscheck in
// internal/lid).
func TestDetectAllCrosscheckSerialVsPool(t *testing.T) {
	defer func(old int) { civsParMin = old }(civsParMin)
	civsParMin = 8

	for _, f := range peelFixtures(t) {
		serial := runDetectAll(t, f, nil)
		if len(serial.clusters) == 0 {
			t.Fatalf("%s: no clusters detected — crosscheck is vacuous", f.name)
		}
		for _, procs := range []int{1, 4, 8} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, workers := range []int{2, 4, 8} {
					got := runDetectAll(t, f, par.New(workers))
					samePeel(t, fmt.Sprintf("%s GOMAXPROCS=%d workers=%d", f.name, procs, workers), serial, got)
				}
			}()
		}
	}
}

// DetectAll over a matrix and an index that evicted the same ids, as the
// stream evicts them, seeds only at live ids and reports no evicted member;
// the component peel at workers {2, 4} equals the serial loop.
func TestDetectAllCrosscheckEvictedIndex(t *testing.T) {
	f := peelFixtures(t)[1]
	var dead []int
	for id := 0; id < len(f.pts); id += 7 {
		dead = append(dead, id)
	}
	run := func(pool *par.Pool) peelResult {
		m, err := matrix.FromRows(f.pts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := lsh.BuildMatrix(m, f.cfg.LSH)
		if err != nil {
			t.Fatal(err)
		}
		m.Evict(dead)
		idx.Evict(dead)
		cfg := f.cfg
		cfg.Pool = pool
		det, err := NewDetectorMatrixWithIndex(m, cfg, idx)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := det.DetectAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range cls {
			for _, id := range append([]int{cl.Seed}, cl.Members...) {
				if id%7 == 0 {
					t.Fatalf("workers=%d: evicted id %d in the cluster seeded at %d", pool.Workers(), id, cl.Seed)
				}
			}
		}
		return peelResult{cls, det.Oracle().Computed(), det.PeakEntries()}
	}
	serial := run(nil)
	for _, workers := range []int{2, 4} {
		samePeel(t, fmt.Sprintf("evicted workers=%d", workers), serial, run(par.New(workers)))
	}
}

// countdownCtx is a context whose Err turns context.Canceled after a fixed
// number of polls, cancelling a DetectAll part-way through its peel. It
// counts every poll, so a poll after DetectAll returned would show.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	polls atomic.Int64
}

func (c *countdownCtx) Err() error {
	c.polls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// Cancelling mid-peel returns the context's error only after every peel
// worker has stopped: no worker polls the context once DetectAll returned.
// A cancellation that lands once every detection has made its last poll,
// while only one-point components (consumed without a detection, hence
// without a poll) remain, still fails DetectAll.
func TestDetectAllCancelMidPeel(t *testing.T) {
	f := peelFixtures(t)[1]
	// detect runs DetectAll under a context that cancels after budget polls
	// and returns the context and its poll count at return.
	detect := func(workers int, budget int64) (*countdownCtx, int64, error) {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(budget)
		cfg := f.cfg
		cfg.Pool = par.New(workers)
		det, err := NewDetector(f.pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = det.DetectAll(ctx)
		return ctx, ctx.polls.Load(), err
	}
	// The budgets come from the pool path's own poll count: it skips the
	// one-point components the serial loop detects, so half the serial
	// count may exceed all of its polls. The count does not depend on the
	// worker count, since each detection polls as often as it would alone.
	_, serial, err := detect(1, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := detect(2, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if full >= serial {
		t.Fatalf("component peel polls %d times, the serial loop %d: no one-point component was skipped", full, serial)
	}
	// inDetections counts the polls of the detections alone: every
	// multi-point component peeled in ascending seed order, as
	// peelComponents peels it. Under that budget the cancel lands after
	// every detection's last poll.
	inDetections := func() int64 {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(1 << 62)
		det, err := NewDetector(f.pts, f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		active := make([]bool, len(f.pts))
		for i := range active {
			active[i] = true
		}
		for _, comp := range index.Components(det.Index()) {
			for _, id := range comp {
				if len(comp) == 1 || !active[id] {
					continue
				}
				cl, err := det.DetectFrom(ctx, int(id), active)
				if err != nil {
					t.Fatal(err)
				}
				det.consume(cl, active, nil)
			}
		}
		return ctx.polls.Load()
	}()
	for _, workers := range []int{2, 4, 8} {
		if _, polls, err := detect(workers, full); err != nil || polls != full {
			t.Fatalf("workers=%d: %d polls and error %v under a budget of exactly %d", workers, polls, err, full)
		}
		for _, budget := range []int64{full / 2, inDetections} {
			ctx, polls, err := detect(workers, budget)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d budget=%d of %d: DetectAll error %v, want context.Canceled", workers, budget, full, err)
			}
			// A worker left running would poll again within its next
			// detection, microseconds away; 20 ms is ample time to show it.
			time.Sleep(20 * time.Millisecond)
			if after := ctx.polls.Load(); after != polls {
				t.Fatalf("workers=%d budget=%d: %d context polls after DetectAll returned", workers, budget, after-polls)
			}
		}
	}
}

// A DetectFrom cancelled at any of its first six context polls — before an
// outer iteration or inside an LID solve — leaves every entry of the
// detector's β position index at -1, and the detector's next DetectFrom
// returns the cluster a fresh detector returns from the same seed, bit for
// bit: members, weights, density, iteration counts, PeakEntries and the
// oracle's kernel-evaluation count. A position left behind by the
// cancelled detection would read as "already in β" and change that result.
func TestDetectFromCancelResetsPositions(t *testing.T) {
	f := peelFixtures(t)[0]
	const seed = 0
	detect := func(det *Detector, budget int64) (*Cluster, int64, int64, error) {
		t.Helper()
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(budget)
		before := det.Oracle().Computed()
		cl, err := det.DetectFrom(ctx, seed, nil)
		return cl, det.Oracle().Computed() - before, ctx.polls.Load(), err
	}
	newDet := func() *Detector {
		t.Helper()
		det, err := NewDetector(f.pts, f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	want, wantEvals, polls, err := detect(newDet(), 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if polls <= 6 || want.OuterIterations < 2 || want.Size() < 2 {
		t.Fatalf("the reference detection polls %d times over %d outer iterations for %d members: too small to cancel at six polls",
			polls, want.OuterIterations, want.Size())
	}
	det := newDet()
	for budget := int64(0); budget < 6; budget++ {
		if _, _, _, err := detect(det, budget); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at poll %d: DetectFrom error %v, want context.Canceled", budget+1, err)
		}
		for id, p := range det.scratch.pos {
			if p != -1 {
				t.Fatalf("cancel at poll %d: position index holds %d at id %d", budget+1, p, id)
			}
		}
		got, evals, _, err := detect(det, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		samePeel(t, fmt.Sprintf("after a cancel at poll %d", budget+1),
			peelResult{[]*Cluster{want}, wantEvals, want.PeakEntries},
			peelResult{[]*Cluster{got}, evals, got.PeakEntries})
	}
}
