// Acceptance-gate crosscheck for generation compaction: after an Evict that
// crosses CompactEvictedShare (the writer compacts before it replies) the
// engine must answer BIT-identically to an engine
// rebuilt from ONLY the survivors — same rows, same hash config, clusters
// and labels remapped through the dense old→new id map — for both index
// backends and for Sharded routers. Compaction is a memory operation;
// nothing about any serving answer may change.
package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"alid/internal/core"
	"alid/internal/matrix"
	"alid/internal/testutil"
)

// compactOnEvict is a compaction share every test eviction crosses: an
// Evict then compacts before it replies.
const compactOnEvict = 1e-9

// compactingEngine is blobEngine armed with compactOnEvict.
func compactingEngine(t *testing.T) (*Engine, [][]float64) {
	t.Helper()
	cfg := engineConfig()
	cfg.CompactEvictedShare = compactOnEvict
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 20, 0, 15)
	e, err := New(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return e, pts
}

// compactReference rebuilds an engine from only the live points of e's
// published view, restating the stream's CompactGeneration contract
// independently: survivor rows in old-id order, a fresh index under the same
// config, members/labels remapped through the monotone old→new map, and a
// dead cluster seed remapped to the cluster's heaviest surviving member. The
// engine is restored AT the target generation so even snapshots compare
// byte-for-byte.
func compactReference(t *testing.T, e *Engine, generation int) *Engine {
	t.Helper()
	v := e.View()
	remap := make([]int, v.Mat.N)
	var rows [][]float64
	for id := 0; id < v.Mat.N; id++ {
		if !v.Mat.Live(id) {
			remap[id] = -1
			continue
		}
		remap[id] = len(rows)
		rows = append(rows, append([]float64(nil), v.Mat.Row(id)...))
	}
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(m, e.Config().Core)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*core.Cluster, len(v.Clusters))
	for ci, cl := range v.Clusters {
		nc := &core.Cluster{
			Weights:         append([]float64(nil), cl.Weights...),
			Density:         cl.Density,
			OuterIterations: cl.OuterIterations,
			LIDIterations:   cl.LIDIterations,
			PeakEntries:     cl.PeakEntries,
		}
		heaviest, heaviestW := -1, -1.0
		for i, mb := range cl.Members {
			if remap[mb] < 0 {
				t.Fatalf("cluster %d still references evicted member %d", ci, mb)
			}
			nc.Members = append(nc.Members, remap[mb])
			if cl.Weights[i] > heaviestW {
				heaviest, heaviestW = remap[mb], cl.Weights[i]
			}
		}
		if cl.Seed >= 0 && cl.Seed < len(remap) && remap[cl.Seed] >= 0 {
			nc.Seed = remap[cl.Seed]
		} else {
			nc.Seed = heaviest
		}
		clusters[ci] = nc
	}
	labels := make([]int, m.N)
	flat := v.Labels.Flat()
	for id, ni := range remap {
		if ni >= 0 {
			labels[ni] = flat[id]
		}
	}
	// Retired ids at the target generation: whatever e had already retired
	// plus every id this compaction releases — required for the snapshot
	// byte-comparison, which now covers the persisted ever-seen accounting.
	retired := v.RetiredIDs + (v.Mat.N - m.N)
	restored, err := RestoreGeneration(e.Config(), m, idx, clusters, labels, v.Commits, generation, retired)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// The tentpole invariant, dense backend: evict → compact → the engine is
// indistinguishable from a survivors-only rebuild (clusters, labels, every
// Assign field, snapshot bytes), and both engines stay in lockstep under
// further identical traffic.
func TestCompactGenerationCrosscheckSurvivorRebuild(t *testing.T) {
	e, pts := compactingEngine(t)
	defer e.Close()
	ctx := context.Background()
	if len(e.Clusters()) < 2 {
		t.Fatal("need ≥ 2 clusters — crosscheck is vacuous")
	}

	// Evict the whole second blob plus scattered noise and first-blob members.
	ids := []int{2, 7, 11}
	for i := 30; i < 60; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, 63, 71)
	if n, err := e.Evict(ctx, ids); err != nil || n != len(ids) {
		t.Fatalf("evicted %d ids (err %v), want %d", n, err, len(ids))
	}
	st := e.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	if st.N != len(pts)-len(ids) || st.LiveN != st.N {
		t.Fatalf("after compact: N=%d live=%d, want both %d", st.N, st.LiveN, len(pts)-len(ids))
	}
	if st.EverSeenIDs != len(pts) {
		t.Fatalf("ever-seen ids = %d, want %d", st.EverSeenIDs, len(pts))
	}

	rebuilt := compactReference(t, e, 1)
	defer rebuilt.Close()
	sameClusters(t, e, rebuilt)
	sameAssigns(t, e, rebuilt, crossQueries(160))

	var a, b bytes.Buffer
	if err := e.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("compacted snapshot differs from survivor rebuild: %d vs %d bytes", a.Len(), b.Len())
	}

	// Lockstep under identical further traffic: new ids start at the
	// compacted N on both sides, evictions and re-compactions agree.
	extra, _ := testutil.Blobs(85, [][]float64{{-20, -20}}, 30, 0.3, 0, 0, 1)
	for _, eng := range []*Engine{e, rebuilt} {
		if err := eng.Ingest(ctx, extra); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Evict(ctx, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	sameClusters(t, e, rebuilt)
	sameAssigns(t, e, rebuilt, append(crossQueries(60), []float64{-20, -20}))
	if got := e.Stats().Generation; got != 2 {
		t.Fatalf("generation after second compact = %d, want 2", got)
	}
}

// With the share armed but nothing evicted, commits and an empty Evict
// never compact: no generation bump, no renumbering.
func TestCompactGenerationNoTombstonesNoOp(t *testing.T) {
	e, pts := compactingEngine(t)
	defer e.Close()
	ctx := context.Background()
	extra, _ := testutil.Blobs(85, [][]float64{{-20, -20}}, 30, 0.3, 0, 0, 1)
	if err := e.Ingest(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Evict(ctx, nil); err != nil || n != 0 {
		t.Fatalf("empty evict: %d, %v", n, err)
	}
	if st := e.Stats(); st.Generation != 0 || st.N != len(pts)+len(extra) {
		t.Fatalf("generation = %d, N = %d, want 0 and %d", st.Generation, st.N, len(pts)+len(extra))
	}
}

// The same invariant on the minhash backend: set signatures, Jaccard kernel,
// banded index — compaction must be invisible to every answer.
func TestCompactGenerationCrosscheckMinHash(t *testing.T) {
	ctx := context.Background()
	initial := append(communitySigs(t, 7, 0, 25), communitySigs(t, 7, 1, 25)...)
	cfg := minhashEngineConfig()
	cfg.CompactEvictedShare = compactOnEvict
	e, err := New(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) < 2 {
		t.Fatalf("clusters = %d, want ≥ 2", len(e.Clusters()))
	}

	ids := []int{0, 3, 9}
	for i := 25; i < 40; i++ {
		ids = append(ids, i)
	}
	if _, err := e.Evict(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Generation != 1 || st.N != len(initial)-len(ids) {
		t.Fatalf("after compact: generation=%d N=%d, want 1 and %d", st.Generation, st.N, len(initial)-len(ids))
	}

	rebuilt := compactReference(t, e, 1)
	defer rebuilt.Close()
	sameClusters(t, e, rebuilt)
	queries := append(communitySigs(t, 42, 0, 10), communitySigs(t, 42, 1, 10)...)
	sameAssigns(t, e, rebuilt, queries)
}

// Auto-compaction: with CompactEvictedShare set, eviction under the
// threshold does not renumber, crossing it does, and the compacted engine
// still matches a survivors-only rebuild.
func TestAutoCompactionOnEvictedShare(t *testing.T) {
	cfg := engineConfig()
	cfg.CompactEvictedShare = 0.25
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 20, 0, 15)
	e, err := New(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	// 10% evicted: under the threshold, no compaction.
	var ids []int
	for i := 0; i < 8; i++ {
		ids = append(ids, i)
	}
	if _, err := e.Evict(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Generation != 0 || st.N != len(pts) {
		t.Fatalf("compacted below threshold: %+v", st)
	}

	// Push past 25%: the evict itself must trigger renumbering.
	ids = ids[:0]
	for i := 8; i < 25; i++ {
		ids = append(ids, i)
	}
	if _, err := e.Evict(ctx, ids); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1 after crossing the share", st.Generation)
	}
	if st.N != len(pts)-25 || st.LiveN != st.N {
		t.Fatalf("after auto-compact: N=%d live=%d, want both %d", st.N, st.LiveN, len(pts)-25)
	}
	rebuilt := compactReference(t, e, 1)
	defer rebuilt.Close()
	sameClusters(t, e, rebuilt)
	sameAssigns(t, e, rebuilt, crossQueries(90))
}

// Retention-driven auto-compaction: continuous ingest under MaxPoints plus a
// compaction share keeps N itself (not just LiveN) pinned near the window —
// the unbounded-uptime invariant. Steady-state memory tracks the live set.
func TestAutoCompactionBoundsNUnderRetention(t *testing.T) {
	cfg := engineConfig()
	cfg.BatchSize = 40
	cfg.Retention.MaxPoints = 100
	cfg.CompactEvictedShare = 0.5
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	total := 0
	for wave := 0; wave < 8; wave++ {
		pts, _ := testutil.Blobs(int64(200+wave), [][]float64{{float64(wave * 30), 0}}, 40, 0.3, 0, 0, 1)
		total += len(pts)
		if err := e.Ingest(ctx, pts); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.LiveN > 100 {
			t.Fatalf("wave %d: live %d exceeds window", wave, st.LiveN)
		}
		// The share bound caps committed ids at window/(1-share): with share
		// 0.5 the id space can never hold more than twice the live window
		// (plus one settling batch).
		if st.N > 2*100+cfg.BatchSize {
			t.Fatalf("wave %d: N=%d not bounded by compaction", wave, st.N)
		}
	}
	st := e.Stats()
	if st.Generation == 0 {
		t.Fatal("no compaction ever ran")
	}
	if st.EverSeenIDs != total {
		t.Fatalf("ever-seen ids = %d, want %d", st.EverSeenIDs, total)
	}
	if a, err := e.Assign([]float64{210, 0}); err != nil || a.Cluster < 0 {
		t.Fatalf("latest blob unassignable after compactions: %+v err=%v", a, err)
	}
}

// Clients re-read ids once the reported generation moves, so a compaction
// on a shard behind the most advanced one must move it too: the router
// reports the sum of its shard generations, not the largest.
func TestShardedCompactGenerationSumsShards(t *testing.T) {
	ctx := context.Background()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 120, 0.3, 30, 0, 15)
	cfg := engineConfig()
	cfg.CompactEvictedShare = compactOnEvict
	s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: 2}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if g := s.Stats().Generation; g != 0 {
		t.Fatalf("fresh router at generation %d, want 0", g)
	}
	// Global id i lives on shard i mod 2: evicting id 0 compacts shard 0
	// alone, then id 1 compacts shard 1, which lagged behind shard 0.
	for shard := 0; shard < 2; shard++ {
		if _, err := s.Evict(ctx, []int{shard}); err != nil {
			t.Fatal(err)
		}
		if g := s.Stats().Generation; g != shard+1 {
			t.Fatalf("after compacting shard %d: generation %d, want %d", shard, g, shard+1)
		}
	}
}

// Sharded compaction: each shard renumbers its LOCAL id space, so global
// routing never changes. A router whose evict compacts must answer exactly
// like one that evicted the same ids and never compacted (the plain-engine
// crosscheck proves compaction ≡ survivor rebuild, and the evict crosscheck
// proves eviction ≡ survivor rebuild, so this is the composed invariant);
// stats aggregate.
func TestShardedCompactGenerationCrosscheck(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ctx := context.Background()
			initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 120, 0.3, 30, 0, 15)
			evict := []int{2, 7, 11, 40, 41, 42, 43, 44, 45, 46, 61, 63, 80}
			router := func(share float64) *Sharded {
				cfg := engineConfig()
				cfg.CompactEvictedShare = share
				s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: n}, initial)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Evict(ctx, evict); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s, ref := router(compactOnEvict), router(0)
			defer s.Close()
			defer ref.Close()

			assigned := 0
			for i, q := range crossQueries(90) {
				want, err := ref.Assign(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Assign(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("query %d: compacted %+v, uncompacted %+v", i, got, want)
				}
				if got.Cluster >= 0 {
					assigned++
				}
			}
			if assigned == 0 {
				t.Fatal("no query was assigned — crosscheck is vacuous")
			}

			// Every shard evicted some of these ids and compacted once; the
			// router reports the sum of the shard generations.
			st := s.Stats()
			if st.Generation != n {
				t.Fatalf("generation = %d, want %d", st.Generation, n)
			}
			if st.EverSeenIDs != len(initial) {
				t.Fatalf("ever-seen ids = %d, want %d", st.EverSeenIDs, len(initial))
			}
			if st.N != len(initial)-len(evict) || st.LiveN != st.N {
				t.Fatalf("after compact: N=%d live=%d, want both %d", st.N, st.LiveN, len(initial)-len(evict))
			}
			if rst := ref.Stats(); rst.Generation != 0 || rst.N != len(initial) {
				t.Fatalf("reference compacted: generation=%d N=%d", rst.Generation, rst.N)
			}
		})
	}
}
