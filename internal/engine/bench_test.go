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

// benchData builds the serving benchmark workload: n points in d
// dimensions as fifty well-separated Gaussian blobs plus background noise
// (the shared testutil.ServeWorkload generator). Many moderate clusters is
// the serving-representative shape: assign cost is dominated by scoring
// the winning cluster's support, which scales with cluster size, not with
// n.
func benchData(n, d int) [][]float64 {
	pts, _ := testutil.ServeWorkload(n, d, 50)
	return pts
}

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

// BenchmarkAssign measures serve-path throughput on the published state:
// parallel lock-free assigns at n=10k, d=16; ns/op is wall time per assign
// across all procs, so throughput is its inverse.
func BenchmarkAssign(b *testing.B) {
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(clustersOf(e)) == 0 {
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
// BenchmarkAssign.
func BenchmarkAssignBatch(b *testing.B) {
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(clustersOf(e)) == 0 {
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
// their steady-state cache warmth. The baseline is the SEQUENTIAL Assign
// loop (pure latency, no parallel-harness overhead).
func BenchmarkAssignBatchSpeedup(b *testing.B) {
	const width = 64
	const block = 32
	pts := benchData(10000, 16)
	e, err := New(benchConfig(), pts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(clustersOf(e)) == 0 {
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
// shards=4 against shards=1 shows what four concurrent writers and
// quarter-size shard indexes buy; the writers only run concurrently on
// hosts with ≥ 4 CPUs.
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
	if len(clustersOf(e)) == 0 {
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

// newDeltaChain builds BenchmarkChainDeltaSave's state: a one-shard engine
// over n serving points and a chain writer whose first save, the full base,
// is written.
func newDeltaChain(tb testing.TB, n int) (*Sharded, *ChainWriter) {
	tb.Helper()
	cfg := benchConfig()
	cfg.BatchSize = 256
	e, err := NewSharded(ShardedConfig{Engine: cfg, Shards: 1}, benchData(n, 16))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	c := NewChainWriter(e, tb.TempDir()+"/alid.snap", 1<<30)
	if err := c.Save(); err != nil {
		tb.Fatal(err)
	}
	return e, c
}

// saveDelta is BenchmarkChainDeltaSave's step: ingest and commit the i-th
// fresh far-away 64-point batch, save it as a delta and return the delta's
// size in bytes, from the chain's own accounting.
func saveDelta(tb testing.TB, e *Sharded, c *ChainWriter, rng *rand.Rand, i int) int64 {
	ctx := context.Background()
	base := 1000 + float64(i)*100
	bs := make([][]float64, 64)
	for k := range bs {
		p := make([]float64, 16)
		for j := range p {
			p[j] = base + rng.NormFloat64()*0.3
		}
		bs[k] = p
	}
	if err := e.Ingest(ctx, bs); err != nil {
		tb.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		tb.Fatal(err)
	}
	before := c.Len()
	if err := c.Save(); err != nil {
		tb.Fatal(err)
	}
	if c.Len() != before+1 {
		tb.Fatalf("chain length %d after a save, want %d (every save a delta)", c.Len(), before+1)
	}
	deltas := c.chains[0].Deltas
	return int64(deltas[len(deltas)-1].Size)
}

// BenchmarkChainDeltaSave times one delta save after a fresh 64-point batch
// at n=10000 and n=50000 committed points. A delta holds its batch plus
// bookkeeping, so its size must not grow with n, while a full save of the
// same state does; TestChainDeltaFollowsBatch asserts that by count.
func BenchmarkChainDeltaSave(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, c := newDeltaChain(b, n)
			rng := rand.New(rand.NewSource(95))
			var deltaBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltaBytes += saveDelta(b, e, c, rng, i)
			}
			b.StopTimer()
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
