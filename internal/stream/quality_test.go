package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/eval"
	"alid/internal/lsh"
	"alid/internal/testutil"
)

// The serving fixture is a reduced copy of one serve-churn shard: the
// geometry of testutil.ServeWorkload (50 Gaussian blobs with σ = 0.3 and
// centers uniform in [0,40]^16, plus 10% uniform noise), the kernel and LSH
// configuration the serving benchmark tunes to it, a retention window of
// serveWindow points, then serveCommits commits of serveArrivals mixed
// arrivals. After a commit leaves more than serveCompactShare of the ids
// dead, the stream compacts, as an engine with that CompactEvictedShare
// does.
const (
	serveWindow       = 2000
	serveDim          = 16
	serveBlobs        = 50
	serveSpread       = 0.3
	serveBox          = 40.0
	serveCommits      = 100
	serveArrivals     = 16
	serveCompactShare = 0.1
	serveSeed         = 3101
)

// serveStreamConfig puts affinity 0.9 at the typical intra-blob distance
// σ·√(2d) and sizes the LSH buckets to it.
func serveStreamConfig() Config {
	scale := serveSpread * math.Sqrt(2*serveDim)
	cc := core.DefaultConfig()
	cc.Kernel = affinity.Kernel{K: -math.Log(0.9) / scale, P: 2}
	cc.LSH = lsh.Config{Projections: 12, Tables: 8, R: 8 * scale, Seed: 1}
	return Config{Core: cc, BatchSize: 256, Retention: Retention{MaxPoints: serveWindow}}
}

// runServeFixture runs the serving fixture and returns the clusterer with
// the ground-truth label of every id of its current generation (-1 noise).
func runServeFixture(t *testing.T) (*Clusterer, []int) {
	t.Helper()
	initial, centers := testutil.ServeWorkload(serveWindow, serveDim, serveBlobs)
	truth := make([]int, len(initial))
	for i := range truth {
		truth[i] = -1
		if i < len(initial)*9/10 {
			truth[i] = i % serveBlobs
		}
	}
	c, err := New(initial, serveStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	commit := func() {
		if err := c.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if float64(c.N()-c.Live()) <= serveCompactShare*float64(c.N()) {
			return
		}
		live := make([]int, 0, c.Live())
		for i, l := range truth {
			if c.mat.Live(i) {
				live = append(live, l)
			}
		}
		if _, err := c.CompactGeneration(); err != nil {
			t.Fatal(err)
		}
		truth = live
	}
	commit()
	// Arrivals in the serving benchmark's mixed composition: every tenth is
	// noise, the others visit the blobs in turn.
	rng := rand.New(rand.NewSource(serveSeed))
	for n := 0; n < serveCommits*serveArrivals; n++ {
		p := make([]float64, serveDim)
		label := -1
		if n%10 == 9 {
			for j := range p {
				p[j] = rng.Float64() * serveBox
			}
		} else {
			label = (n - n/10) % serveBlobs
			for j := range p {
				p[j] = centers[label][j] + rng.NormFloat64()*serveSpread
			}
		}
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
		truth = append(truth, label)
		if c.Pending() == serveArrivals {
			commit()
		}
	}
	return c, truth
}

// The clusters a stream maintains through arrivals, retention and
// compaction must be about as good as an offline DetectAll over the same
// live window: re-converging only dirty clusters may cost a little AVG-F
// (a cluster keeps a local solution that a fresh peel would improve), but
// must not fragment clusters or absorb noise.
func TestStreamQualityMatchesOffline(t *testing.T) {
	c, truth := runServeFixture(t)
	labels := c.Labels()
	var rows [][]float64
	var liveTruth, served []int
	for i := 0; i < c.N(); i++ {
		if c.mat.Live(i) {
			rows = append(rows, c.mat.Row(i))
			liveTruth = append(liveTruth, truth[i])
			served = append(served, labels[i])
		}
	}
	if len(rows) != serveWindow {
		t.Fatalf("live window holds %d points, want %d", len(rows), serveWindow)
	}
	det, err := core.NewDetector(rows, c.cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := det.DetectAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eval.Score(liveTruth, served)
	if err != nil {
		t.Fatal(err)
	}
	o, err := eval.Score(liveTruth, core.Labels(len(rows), cls))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream: %d clusters, AVG-F %.4f, noise_filtered %.3f; offline: %d clusters, AVG-F %.4f, noise_filtered %.3f",
		len(c.clusters), s.AVGF, s.NoiseFiltered, len(cls), o.AVGF, o.NoiseFiltered)
	const tol = 0.03
	if s.AVGF < o.AVGF-tol {
		t.Errorf("stream AVG-F %.4f is more than %.2f below the offline %.4f", s.AVGF, tol, o.AVGF)
	}
	if s.NoiseFiltered < 0.95 {
		t.Errorf("stream noise_filtered %.3f, want ≥ 0.95", s.NoiseFiltered)
	}
}

// streamGolden is what the serving fixture leaves behind.
type streamGolden struct {
	// Digest is streamDigest of the final view.
	Digest   string
	Clusters int
	// KernelEvals is View().KernelEvals: every commit-side kernel
	// evaluation of the run (dirtiness checks, detections, eviction repair).
	KernelEvals int64
}

// The serving fixture's final clusters, labels and commit-side work are
// pinned. A change that moves any of them must say why and rewrite the
// values here.
func TestStreamGolden(t *testing.T) {
	if testutil.FusesMultiplyAdd() {
		t.Skip("the golden bits hold where x*y+z rounds twice; this build fuses multiply-adds, so detection rounds differently")
	}
	c, _ := runServeFixture(t)
	v := c.View()
	got := streamGolden{
		Digest:      fmt.Sprintf("%016x", streamDigest(v)),
		Clusters:    len(v.Clusters),
		KernelEvals: v.KernelEvals,
	}
	want := streamGolden{Digest: "0bc6ede825e47751", Clusters: 50, KernelEvals: 952840}
	if got != want {
		t.Errorf("serving fixture: got %+v, golden %+v", got, want)
	}
}

// streamDigest is FNV-64a over every cluster's size, members and weight
// bits, in order, then over every label. Densities are left out: they are
// derived from the weights, and an exact update may round them differently.
func streamDigest(v View) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, cl := range v.Clusters {
		put(uint64(len(cl.Members)))
		for i, m := range cl.Members {
			put(uint64(m))
			put(math.Float64bits(cl.Weights[i]))
		}
	}
	for _, l := range v.Labels.Flat() {
		put(uint64(int64(l)))
	}
	return h.Sum64()
}
