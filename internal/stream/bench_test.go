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

// BenchmarkEvict is the acceptance gate of tombstoned eviction: an
// ingest+evict loop at a fixed retention window must keep (a) the live
// point count at the window and (b) the per-commit cost flat in the number
// of points EVER seen. The sub-benchmarks pre-run the loop until `ever`
// total points have been committed (10× and 50× the window), then measure
// the steady-state cost of one more batch commit — which includes the
// retention eviction of one expired batch, its cluster teardown and the
// share-and-seal publish bookkeeping. scripts/bench.sh records the
// ever=100000 / ever=20000 ratio into BENCH_PR5.json (gate: ≤ 1.3); a
// growing ratio means some per-commit path still scales with dead state.
func BenchmarkEvict(b *testing.B) {
	const window = 2000
	const batch = 64
	const d = 16
	for _, ever := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("ever=%d", ever), func(b *testing.B) {
			ctx := context.Background()
			cfg := commitBenchConfig()
			cfg.Retention = Retention{MaxPoints: window}
			c, err := New(nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(93))
			commitBatch := func(i int) {
				base := 1000 + float64(i)*100
				for k := 0; k < batch; k++ {
					p := make([]float64, d)
					for j := range p {
						p[j] = base + rng.NormFloat64()*0.3
					}
					if err := c.Add(ctx, p); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				if c.Live() > window {
					b.Fatalf("live %d exceeds window %d", c.Live(), window)
				}
			}
			i := 0
			for ; c.N() < ever; i++ {
				commitBatch(i)
			}
			if c.Live() != window {
				b.Fatalf("steady state not reached: live %d, want %d", c.Live(), window)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				commitBatch(i)
				i++
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Live()), "live-points")
		})
	}
}

// BenchmarkGenerationSteadyState is the acceptance gate of generation
// compaction: the BenchmarkEvict loop (fixed retention window, continuous
// ingest) plus the auto-compaction policy — renumber whenever the evicted
// share of committed ids exceeds 0.5. BenchmarkEvict proves the per-commit
// COST stays flat in points ever seen; this benchmark proves the committed
// id space ITSELF stays bounded (N ≤ 2×window + one settling batch, live
// pinned at the window) while the amortized cost of one batch commit — now
// including its share of the periodic renumbering — stays flat too.
// scripts/bench.sh records the ever=100000 / ever=20000 ratio into
// BENCH_PR10.json (gate: ≤ 1.3); a growing ratio means some per-commit or
// per-compaction path still scales with dead history.
func BenchmarkGenerationSteadyState(b *testing.B) {
	const window = 2000
	const batch = 64
	const d = 16
	const share = 0.5
	for _, ever := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("ever=%d", ever), func(b *testing.B) {
			ctx := context.Background()
			cfg := commitBenchConfig()
			cfg.Retention = Retention{MaxPoints: window}
			c, err := New(nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(94))
			commitBatch := func(i int) {
				base := 1000 + float64(i)*100
				for k := 0; k < batch; k++ {
					p := make([]float64, d)
					for j := range p {
						p[j] = base + rng.NormFloat64()*0.3
					}
					if err := c.Add(ctx, p); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				// The engine's maybeCompact policy, inlined: renumber once
				// the evicted share crosses the threshold.
				if n := c.N(); n > 0 && float64(n-c.Live())/float64(n) > share {
					if _, err := c.CompactGeneration(); err != nil {
						b.Fatal(err)
					}
				}
				if c.Live() > window {
					b.Fatalf("live %d exceeds window %d", c.Live(), window)
				}
				if c.N() > 2*window+batch {
					b.Fatalf("committed id space %d not bounded (want ≤ %d)", c.N(), 2*window+batch)
				}
			}
			i := 0
			for ; c.EverSeenIDs() < ever; i++ {
				commitBatch(i)
			}
			if c.Live() != window {
				b.Fatalf("steady state not reached: live %d, want %d", c.Live(), window)
			}
			if c.Generation() == 0 {
				b.Fatal("no compaction happened during warmup — gate is vacuous")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				commitBatch(i)
				i++
			}
			b.StopTimer()
			b.ReportMetric(float64(c.N()), "committed-ids")
			b.ReportMetric(float64(c.Generation()), "generation")
		})
	}
}

// BenchmarkCommitAfterPublish is the acceptance gate of the segmented-
// storage refactor: the cost of a batch commit that immediately follows a
// published View must NOT scale with the number of committed points n. The
// pre-segmentation copy-on-write paid an O(n·d) matrix clone plus an O(n·l)
// index clone on exactly this path; share-and-seal replaces both with
// tail-only copies, so the ns/op at n=100k should stay within ~1.2× of
// n=10k at the same batch size (scripts/bench.sh records the ratio into
// BENCH_PR3.json).
//
// Each iteration publishes a view, streams one fresh far-away 64-point blob
// (constant detection work per commit, no interference with the standing
// clusters), and commits.
func BenchmarkCommitAfterPublish(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const d = 16
			const batch = 64
			ctx := context.Background()
			c, err := New(commitBenchData(n, d), commitBenchConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Commit(ctx); err != nil {
				b.Fatal(err)
			}
			if len(c.Clusters()) == 0 {
				b.Fatal("no clusters after initial commit")
			}
			rng := rand.New(rand.NewSource(92))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := c.View()
				if v.Mat.N != c.N() {
					b.Fatal("view out of sync")
				}
				base := 1000 + float64(i)*100
				for k := 0; k < batch; k++ {
					p := make([]float64, d)
					for j := range p {
						p[j] = base + rng.NormFloat64()*0.3
					}
					if err := c.Add(ctx, p); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.Commit(ctx); err != nil {
					b.Fatal(err)
				}
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
