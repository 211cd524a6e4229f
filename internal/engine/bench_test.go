package engine

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/stream"
	"alid/internal/testutil"
)

// benchData builds the acceptance-gate serving workload: n=10k, d=16, fifty
// well-separated Gaussian blobs plus background noise (the shared
// testutil.ServeWorkload generator — the experiments load generator
// measures the identical workload). Many moderate clusters is the
// serving-representative shape: assign cost is dominated by scoring the
// winning cluster's support, which scales with cluster size, not with n.
func benchData(n, d int) [][]float64 {
	pts, _ := testutil.ServeWorkload(n, d, 50)
	return pts
}

// BenchmarkAssign measures serve-path throughput on the published state:
// parallel lock-free assigns at n=10k, d=16. scripts/bench.sh records the
// ns/op (wall time per assign across all procs — throughput is its inverse)
// into BENCH_PR2.json; the acceptance target is ≥50k assigns/sec.
// benchConfig tunes the kernel and LSH segment to the benchData geometry:
// intra-blob distances concentrate near σ·√(2d) ≈ 1.7, so K puts such pairs
// at affinity ≈ 0.9 (mirroring AutoConfig's rule) and R makes them collide
// with high probability across the 8 tables.
func benchConfig() Config {
	cfg := Config{Core: core.DefaultConfig()}
	cfg.Core.Kernel = affinity.Kernel{K: 0.06, P: 2}
	cfg.Core.LSH = lsh.Config{Projections: 12, Tables: 8, R: 14, Seed: 1}
	return cfg
}

func BenchmarkAssign(b *testing.B) {
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) == 0 {
		b.Fatal("no clusters to serve")
	}

	// Queries: jittered copies of dataset points, so most hit a bucket.
	rng := rand.New(rand.NewSource(72))
	queries := make([][]float64, 1024)
	for i := range queries {
		src := pts[rng.Intn(len(pts))]
		q := make([]float64, len(src))
		for j := range q {
			q[j] = src[j] + rng.NormFloat64()*0.05
		}
		queries[i] = q
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Assign(queries[i&1023]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkAssignBatch measures the batched pipeline at several batch
// widths on the BenchmarkAssign workload. Each op is ONE QUERY (b.N is
// scaled by the batch size), so ns/op is directly comparable with
// BenchmarkAssign: the PR-6 acceptance gate is q=64 serving ≥2× the
// single-point assigns/sec per query.
func BenchmarkAssignBatch(b *testing.B) {
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) == 0 {
		b.Fatal("no clusters to serve")
	}
	rng := rand.New(rand.NewSource(72))
	queries := make([][]float64, 1024)
	for i := range queries {
		src := pts[rng.Intn(len(pts))]
		q := make([]float64, len(src))
		for j := range q {
			q[j] = src[j] + rng.NormFloat64()*0.05
		}
		queries[i] = q
	}

	for _, q := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			qs := make([][]float64, q)
			var out []Assignment
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += q {
				for k := range qs {
					qs[k] = queries[(i+k)&1023]
				}
				var err error
				if out, err = e.AssignBatchInto(qs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssignBatchSpeedup is a drift-robust diagnostic for the
// amortization ratio. One op pushes 64 queries through the engine,
// alternating between the two serving modes in blocks of 32 ops — 32 ops of
// 64 sequential Assign calls, then 32 ops of one AssignBatchInto each —
// timing the modes separately with the same clock and reporting per-query
// single-time over per-query batch-time as the "x-speedup" metric. Pairing
// the modes at ~10ms block granularity makes the ratio robust to the
// host-load phases (seconds to minutes) that can skew two series benchmarked
// a minute apart, while each block is long enough that both modes run at
// their steady-state cache warmth. Note the baseline here is the SEQUENTIAL
// Assign loop (pure latency, no parallel-harness overhead), so this ratio
// reads slightly below the recorded gate, which by PR-2 convention compares
// against BenchmarkAssign's parallel serving throughput.
func BenchmarkAssignBatchSpeedup(b *testing.B) {
	const width = 64
	const block = 32
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) == 0 {
		b.Fatal("no clusters to serve")
	}
	rng := rand.New(rand.NewSource(72))
	queries := make([][]float64, 1024)
	for i := range queries {
		src := pts[rng.Intn(len(pts))]
		q := make([]float64, len(src))
		for j := range q {
			q[j] = src[j] + rng.NormFloat64()*0.05
		}
		queries[i] = q
	}

	qs := make([][]float64, width)
	var out []Assignment
	var tSingle, tBatch time.Duration
	var nSingle, nBatch int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range qs {
			qs[k] = queries[(i*width+k)&1023]
		}
		if (i/block)&1 == 0 {
			start := time.Now()
			for _, q := range qs {
				if _, err := e.Assign(q); err != nil {
					b.Fatal(err)
				}
			}
			tSingle += time.Since(start)
			nSingle++
		} else {
			start := time.Now()
			var err error
			if out, err = e.AssignBatchInto(qs, out); err != nil {
				b.Fatal(err)
			}
			tBatch += time.Since(start)
			nBatch++
		}
	}
	if nSingle > 0 && nBatch > 0 {
		perSingle := float64(tSingle) / float64(nSingle)
		perBatch := float64(tBatch) / float64(nBatch)
		b.ReportMetric(perSingle/perBatch, "x-speedup")
		b.ReportMetric(perBatch/width, "batch-ns/query")
	}
}

// BenchmarkIngestSharded measures commit throughput of the sharded write
// path on the BenchmarkAssign workload: each op ingests one 64-point batch
// through the router and the final Flush (inside the timer) drains every
// shard, so ns/op reflects true committed throughput, not enqueue speed.
// Retention pins the live set at ~10k so commit cost stays steady-state.
// The PR-8 acceptance gate compares shards=4 against shards=1 — ≥1.5× on
// hosts with ≥4 CPUs, where four writers genuinely run concurrently
// (shards=1 must stay within noise of the plain engine either way).
func BenchmarkIngestSharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pts := benchData(10000, 16)
			cfg := benchConfig()
			cfg.BatchSize = 256
			cfg.Retention = stream.Retention{MaxPoints: 10000}
			s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: shards}, pts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(91))
			pool := make([][]float64, 4096)
			for i := range pool {
				src := pts[rng.Intn(len(pts))]
				p := make([]float64, len(src))
				for j := range p {
					p[j] = src[j] + rng.NormFloat64()*0.05
				}
				pool[i] = p
			}
			const batch = 64
			bs := make([][]float64, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range bs {
					bs[k] = pool[(i*batch+k)&4095]
				}
				if err := s.Ingest(ctx, bs); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkAssignSequential is the single-goroutine latency counterpart.
func BenchmarkAssignSequential(b *testing.B) {
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) == 0 {
		b.Fatal("no clusters to serve")
	}
	q := append([]float64(nil), pts[17]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Assign(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainDeltaSave is the acceptance gate of delta snapshots: the
// bytes written per delta save must scale with the WINDOW of change (one
// batch of appends plus bookkeeping), not with the committed point count n.
// Each op ingests and commits one fresh 64-point batch, then saves a delta
// through the ChainWriter of a one-shard engine; the reported
// delta-bytes/op comes from the chain's own size accounting. A full v5 snapshot of the same state
// scales with n — the recorded n=50000 / n=10000 delta-bytes ratio in
// BENCH_PR10.json must stay near 1.
func BenchmarkChainDeltaSave(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchData(n, 16)
			cfg := benchConfig()
			cfg.BatchSize = 256
			e, err := NewSharded(ShardedConfig{Engine: cfg, Shards: 1}, pts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			c := NewChainWriter(e, b.TempDir()+"/alid.snap", 1<<30)
			if err := c.Save(); err != nil { // full base, outside the timer
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(95))
			const batch = 64
			var deltaBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := 1000 + float64(i)*100
				bs := make([][]float64, batch)
				for k := range bs {
					p := make([]float64, 16)
					for j := range p {
						p[j] = base + rng.NormFloat64()*0.3
					}
					bs[k] = p
				}
				if err := e.Ingest(ctx, bs); err != nil {
					b.Fatal(err)
				}
				if err := e.Flush(ctx); err != nil {
					b.Fatal(err)
				}
				if err := c.Save(); err != nil {
					b.Fatal(err)
				}
				deltas := c.chains[0].Deltas
				deltaBytes += int64(deltas[len(deltas)-1].Size)
			}
			b.StopTimer()
			if c.Len() != b.N {
				b.Fatalf("chain length %d, want %d (every save a delta)", c.Len(), b.N)
			}
			b.ReportMetric(float64(deltaBytes)/float64(b.N), "delta-bytes/op")
		})
	}
}

// BenchmarkShardedSetup measures a 4-shard engine's whole-shard set-up and
// persistence over 20,000 serving points: new builds it (every shard's
// initial detection), save writes a full save of it and load restores that
// save. The router runs each on its pool, one shard per worker, so ns/op
// falls with GOMAXPROCS up to the shard count.
func BenchmarkShardedSetup(b *testing.B) {
	cfg := ShardedConfig{Engine: benchConfig(), Shards: 4}
	pts := benchData(20000, 16)
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewSharded(cfg, pts)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
	s, err := NewSharded(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	path := filepath.Join(b.TempDir(), "alid.snap")
	if err := s.SaveFiles(path); err != nil { // what load restores, when run alone
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.SaveFiles(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := LoadSharded(path, ShardedLoadOptions{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			r.Close()
			b.StartTimer()
		}
	})
}
