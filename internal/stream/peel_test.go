package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/dataset"
	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/par"
	"alid/internal/testutil"
)

// peelFixture is a first-commit input with its configuration.
type peelFixture struct {
	name string
	pts  [][]float64
	cfg  Config
}

// firstCommitFixtures are the serving geometry (4,000 points, retention
// off, so the first commit is only the peel) and an eta mixture whose
// overlapping cluster pairs, single clusters and singleton noise make many
// LSH components, with the kernel and segment AutoConfig picks for it.
func firstCommitFixtures(t *testing.T) []peelFixture {
	t.Helper()
	serve, _ := testutil.ServeWorkload(4000, serveDim, serveBlobs)
	serveCfg := serveStreamConfig()
	serveCfg.Retention = Retention{}

	mc := dataset.DefaultMixtureConfig(600, dataset.RegimeEta)
	mc.Dim, mc.P, mc.Seed = 10, 100, 7
	ds, err := dataset.Mixture(mc)
	if err != nil {
		t.Fatal(err)
	}
	eta := core.DefaultConfig()
	eta.Kernel = affinity.Kernel{K: 0.0101, P: 2}
	eta.LSH = lsh.Config{Projections: 12, Tables: 8, R: 83.44, Seed: 1}
	return []peelFixture{
		{"serve", serve, serveCfg},
		{"eta", ds.Points, Config{Core: eta, BatchSize: 256}},
	}
}

// A stream's first commit, where every point is an arrival and no cluster
// exists yet, is DetectAll's peel: the same clusters (members, weight bits,
// density bits, seeds) and the same kernel-evaluation count, at
// Parallelism 0 and -1 and at GOMAXPROCS 1 and 4, so with its components
// peeled serially and on a 4-wide pool. The stream keeps its clusters in
// seed order, DetectAll sorts them by density, so the test compares them
// in seed order.
func TestFirstCommitMatchesDetectAll(t *testing.T) {
	ctx := context.Background()
	for _, f := range firstCommitFixtures(t) {
		for _, procs := range []int{1, 4} {
			for _, parallelism := range []int{0, -1} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					label := fmt.Sprintf("%s GOMAXPROCS=%d parallelism=%d", f.name, procs, parallelism)
					cfg := f.cfg
					cfg.Core.Pool = par.New(parallelism)
					det, err := core.NewDetector(f.pts, cfg.Core)
					if err != nil {
						t.Fatal(err)
					}
					want, err := det.DetectAll(ctx)
					if err != nil {
						t.Fatal(err)
					}
					c, err := New(f.pts, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.Commit(ctx); err != nil {
						t.Fatal(err)
					}
					checkLabelClusterConsistency(t, c)
					multi := 0
					for _, comp := range index.Components(c.index) {
						if len(comp) > 1 {
							multi++
						}
					}
					if multi < 2 || len(want) < 2 {
						t.Fatalf("%s: %d multi-point components, %d clusters: want several of each", label, multi, len(want))
					}
					if got := c.View().KernelEvals; got != det.Oracle().Computed() {
						t.Fatalf("%s: first commit made %d kernel evaluations, DetectAll %d", label, got, det.Oracle().Computed())
					}
					got := c.Clusters()
					if !slices.IsSortedFunc(got, func(a, b *core.Cluster) int { return a.Seed - b.Seed }) {
						t.Fatalf("%s: stream clusters are not in seed order", label)
					}
					slices.SortFunc(want, func(a, b *core.Cluster) int { return a.Seed - b.Seed })
					sameClusters(t, label, want, got)
				}()
			}
		}
	}
}

// sameClusters requires got to equal want cluster by cluster: seed,
// density bits, members and weight bits.
func sameClusters(t *testing.T, label string, want, got []*core.Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Seed != w.Seed || math.Float64bits(g.Density) != math.Float64bits(w.Density) || !slices.Equal(g.Members, w.Members) {
			t.Fatalf("%s cluster %d: seed %d density %v size %d, want seed %d density %v size %d",
				label, i, g.Seed, g.Density, g.Size(), w.Seed, w.Density, w.Size())
		}
		for j := range w.Weights {
			if math.Float64bits(g.Weights[j]) != math.Float64bits(w.Weights[j]) {
				t.Fatalf("%s cluster %d weight %d: %v, want %v", label, i, j, g.Weights[j], w.Weights[j])
			}
		}
	}
}

// pollCtx is a context whose Err turns context.Canceled after a fixed
// number of polls. Its counters are atomic, because a first commit's peel
// workers poll it concurrently, and it counts every poll, so a poll after
// Commit returned would show.
type pollCtx struct {
	context.Context
	left  atomic.Int64
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	c.polls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A first commit cancelled mid-peel, with its components on a 4-wide pool,
// returns the context's error only after every peel worker has stopped,
// keeps the clusters accepted so far with labels that agree with them and
// an available set of exactly the live unlabeled points, and the next
// commit proceeds from there.
func TestFirstCommitCancelMidPeel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := firstCommitFixtures(t)[1]
	commit := func(budget int64) (*Clusterer, *pollCtx, error) {
		c, err := New(f.pts, f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.left.Store(budget)
		return c, ctx, c.Commit(ctx)
	}
	_, ctx, err := commit(1 << 62)
	if err != nil {
		t.Fatal(err)
	}
	full := ctx.polls.Load()
	for _, budget := range []int64{full / 4, full / 2, full * 9 / 10} {
		c, ctx, err := commit(budget)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d of %d polls: Commit error %v, want context.Canceled", budget, full, err)
		}
		polls := ctx.polls.Load()
		// A worker left running would poll again within its next
		// detection, microseconds away; 20 ms is ample time to show it.
		time.Sleep(20 * time.Millisecond)
		if after := ctx.polls.Load(); after != polls {
			t.Fatalf("budget %d: %d context polls after Commit returned", budget, after-polls)
		}
		checkLabelClusterConsistency(t, c)
		if c.N() != len(f.pts) || c.Pending() != 0 {
			t.Fatalf("budget %d: %d points committed, %d pending after the cancelled commit", budget, c.N(), c.Pending())
		}
		for _, p := range f.pts[:40] {
			if err := c.Add(context.Background(), slices.Clone(p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(context.Background()); err != nil {
			t.Fatalf("budget %d: the commit after the cancelled one: %v", budget, err)
		}
		checkLabelClusterConsistency(t, c)
	}
}

// A later commit whose detection from an arrival absorbs another arrival
// and is rejected (two points form at most density 0.5, below the 0.75
// threshold) leaves both arrivals free at the end of the commit: label -1
// and available, so a later commit may still cluster them.
func TestRejectedArrivalEndsCommitFree(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 0, 0, 15)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters()) == 0 {
		t.Fatal("no clusters after the first commit")
	}
	a, b := c.N(), c.N()+1
	for _, p := range [][]float64{{60, -60}, {60.3, -60}} {
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	checkLabelClusterConsistency(t, c)
	lbl := c.Labels()
	for _, id := range []int{a, b} {
		if lbl[id] != -1 || !c.avail[id] {
			t.Fatalf("arrival %d ends the commit with label %d, available %v; want -1, true", id, lbl[id], c.avail[id])
		}
	}
	// The commit's one detection, seeded at a, is the one a DetectFrom
	// from a over the same available set makes: it holds b and is rejected.
	cl, err := c.det.DetectFrom(ctx, a, slices.Clone(c.avail))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(cl.Members, b) || cl.Density >= c.cfg.Core.DensityThreshold {
		t.Fatalf("the detection from arrival %d holds %v at density %v: want arrival %d, rejected", a, cl.Members, cl.Density, b)
	}
}

// Add and New refuse a point whose squared norm is not finite, as
// matrix.FromRows would at commit time, so no such point is ever buffered
// and the next commit succeeds.
func TestAddRefusesNonFinitePoint(t *testing.T) {
	ctx := context.Background()
	if _, err := New([][]float64{{0, 0}, {math.NaN(), 1}}, streamConfig()); err == nil {
		t.Fatal("New accepted a NaN point")
	}
	c, err := New(nil, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{{math.NaN(), 0}, {0, math.Inf(-1)}, {1e200, 0}} {
		if err := c.Add(ctx, bad); err == nil {
			t.Fatalf("Add accepted %v", bad)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("%d refused points buffered", c.Pending())
	}
	if err := c.Add(ctx, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
