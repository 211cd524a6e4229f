package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/testutil"
)

// commitBenchConfig mirrors the serving benchmark geometry (d=16 blobs of
// σ=0.3): K puts intra-blob pairs at affinity ≈ 0.9 and R makes them collide
// across the 8 tables. BatchSize is set out of reach so the benchmark
// controls commit boundaries explicitly.
func commitBenchConfig() Config {
	c := core.DefaultConfig()
	c.Kernel = affinity.Kernel{K: 0.06, P: 2}
	c.LSH = lsh.Config{Projections: 12, Tables: 8, R: 14, Seed: 1}
	return Config{Core: c, BatchSize: 1 << 30}
}

// commitDim is the dimension of every commit benchmark's points.
const commitDim = 16

// commitBenchData builds n points in d=16 as n/200 tight, well-separated
// Gaussian blobs — many moderate clusters, the serving-representative shape.
func commitBenchData(n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(91))
	const blobSize = 200
	blobs := n / blobSize
	centers := make([][]float64, blobs)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 40
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%blobs]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*0.3
		}
		pts[i] = p
	}
	return pts
}

// The retention loop streams one fresh far-away blob of retentionBatch
// points per commit into a window of retentionWindow points, so in steady
// state every commit evicts one expired blob and tears down its cluster.
const (
	retentionWindow = 2000
	retentionBatch  = 64
)

// retentionLoop is BenchmarkEvict's ingest+evict loop and, with
// compactShare > 0, BenchmarkGenerationSteadyState's: the engine's
// compaction policy, inlined, renumbers once the evicted share of
// committed ids exceeds compactShare. TestRetentionFlatInPointsSeen and
// TestGenerationsBounded count the same loop.
type retentionLoop struct {
	c            *Clusterer
	rng          *rand.Rand
	compactShare float64
	i            int
}

func newRetentionLoop(tb testing.TB, seed int64, compactShare float64) *retentionLoop {
	tb.Helper()
	cfg := commitBenchConfig()
	cfg.Retention = Retention{MaxPoints: retentionWindow}
	c, err := New(nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &retentionLoop{c: c, rng: rand.New(rand.NewSource(seed)), compactShare: compactShare}
}

// commit streams and commits the next blob, compacts when the policy says
// so, and checks the bounds: the live set never exceeds the window and,
// under compaction, the committed id space never exceeds two windows and
// one batch.
func (l *retentionLoop) commit(tb testing.TB) {
	ctx := context.Background()
	c := l.c
	base := 1000 + float64(l.i)*100
	l.i++
	for k := 0; k < retentionBatch; k++ {
		p := make([]float64, commitDim)
		for j := range p {
			p[j] = base + l.rng.NormFloat64()*0.3
		}
		if err := c.Add(ctx, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		tb.Fatal(err)
	}
	if l.compactShare > 0 {
		if n := c.N(); n > 0 && float64(n-c.Live())/float64(n) > l.compactShare {
			if _, err := c.CompactGeneration(); err != nil {
				tb.Fatal(err)
			}
		}
		if c.N() > 2*retentionWindow+retentionBatch {
			tb.Fatalf("committed id space %d not bounded (want ≤ %d)", c.N(), 2*retentionWindow+retentionBatch)
		}
	}
	if c.Live() > retentionWindow {
		tb.Fatalf("live %d exceeds window %d", c.Live(), retentionWindow)
	}
}

// BenchmarkEvict times one commit of the retention loop after `ever` points
// have been committed (10× and 50× the window): the commit, the retention
// eviction of one expired batch, its cluster teardown and the share-and-seal
// publish bookkeeping. Its cost must not grow with the points ever seen;
// TestRetentionFlatInPointsSeen asserts that by count.
func BenchmarkEvict(b *testing.B) {
	for _, ever := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("ever=%d", ever), func(b *testing.B) {
			l := newRetentionLoop(b, 93, 0)
			for l.c.N() < ever {
				l.commit(b)
			}
			if l.c.Live() != retentionWindow {
				b.Fatalf("steady state not reached: live %d, want %d", l.c.Live(), retentionWindow)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				l.commit(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(l.c.Live()), "live-points")
		})
	}
}

// BenchmarkGenerationSteadyState times one commit of the retention loop
// with compaction at an evicted share of 0.5, amortizing its share of the
// periodic renumbering, after `ever` ids have been minted. The committed id
// space itself stays bounded (N ≤ 2×window + one batch, checked on every
// commit) and the cost must not grow with the ids ever minted;
// TestGenerationsBounded asserts both by count.
func BenchmarkGenerationSteadyState(b *testing.B) {
	for _, ever := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("ever=%d", ever), func(b *testing.B) {
			l := newRetentionLoop(b, 94, 0.5)
			for l.c.EverSeenIDs() < ever {
				l.commit(b)
			}
			if l.c.Live() != retentionWindow {
				b.Fatalf("steady state not reached: live %d, want %d", l.c.Live(), retentionWindow)
			}
			if l.c.Generation() == 0 {
				b.Fatal("no compaction happened during warmup — gate is vacuous")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				l.commit(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(l.c.N()), "committed-ids")
			b.ReportMetric(float64(l.c.Generation()), "generation")
		})
	}
}

// newPublishStream commits n points of commitBenchData as one first commit:
// the standing state of BenchmarkCommitAfterPublish and
// TestCommitAfterPublishFlatInN.
func newPublishStream(tb testing.TB, n int) *Clusterer {
	tb.Helper()
	c, err := New(commitBenchData(n, commitDim), commitBenchConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Commit(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if len(c.clusters) == 0 {
		tb.Fatal("no clusters after initial commit")
	}
	return c
}

// commitAfterPublish is BenchmarkCommitAfterPublish's step: publish a view,
// then stream the i-th fresh far-away 64-point blob and commit it. The blob
// costs the same detection work at every n and leaves the standing clusters
// alone.
func commitAfterPublish(tb testing.TB, c *Clusterer, rng *rand.Rand, i int) {
	ctx := context.Background()
	if v := c.View(); v.Mat.N != c.N() {
		tb.Fatal("view out of sync")
	}
	base := 1000 + float64(i)*100
	for k := 0; k < 64; k++ {
		p := make([]float64, commitDim)
		for j := range p {
			p[j] = base + rng.NormFloat64()*0.3
		}
		if err := c.Add(ctx, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCommitAfterPublish times a batch commit that immediately follows
// a published View, at n=10k and n=100k. Share-and-seal copies only the
// matrix and index tails on this path, where copy-on-write paid an O(n·d)
// matrix clone plus an O(n·l) index clone, so the cost must not grow with n;
// TestCommitAfterPublishFlatInN asserts that by count.
func BenchmarkCommitAfterPublish(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := newPublishStream(b, n)
			rng := rand.New(rand.NewSource(92))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitAfterPublish(b, c, rng, i)
			}
		})
	}
}

// BenchmarkFirstCommit measures a stream's first commit over 20,000 points
// of the serving geometry with the serving fixture's configuration, its
// retention window switched off so the commit evicts nothing: the matrix
// and index build, then the whole-set peel, whose LSH components run on a
// GOMAXPROCS-wide pool (serially at -cpu 1).
func BenchmarkFirstCommit(b *testing.B) {
	pts, _ := testutil.ServeWorkload(20000, serveDim, serveBlobs)
	cfg := serveStreamConfig()
	cfg.Retention = Retention{}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(pts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(c.clusters)), "clusters")
		}
	}
}
