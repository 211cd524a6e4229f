package engine

import (
	"bytes"
	"context"
	"testing"
	"time"

	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/stream"
	"alid/internal/testutil"
)

// survivorRestore rebuilds an engine from ONLY the live points of e's
// published view: a fresh matrix over the survivor rows, a fresh LSH index
// built over it (same hash config and seed — identical hash functions),
// and the maintained clusters and labels remapped through the monotone
// old-id → new-id mapping. Everything the evicted engine still references
// is present; everything evicted is physically absent.
func survivorRestore(t *testing.T, e *Engine) *Engine {
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
	idx, err := lsh.BuildMatrix(m, e.Config().Core.LSH)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*core.Cluster, len(v.Clusters))
	for ci, cl := range v.Clusters {
		nc := &core.Cluster{
			Weights:         append([]float64(nil), cl.Weights...),
			Density:         cl.Density,
			Seed:            cl.Seed,
			OuterIterations: cl.OuterIterations,
			LIDIterations:   cl.LIDIterations,
			PeakEntries:     cl.PeakEntries,
		}
		for _, mb := range cl.Members {
			if remap[mb] < 0 {
				t.Fatalf("cluster %d still references evicted member %d", ci, mb)
			}
			nc.Members = append(nc.Members, remap[mb])
		}
		if nc.Seed < len(remap) && remap[nc.Seed] >= 0 {
			nc.Seed = remap[nc.Seed]
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
	restored, err := RestoreGeneration(e.Config(), m, idx, clusters, labels, v.Commits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// Acceptance-gate crosscheck: after eviction, every Assign answer — winner,
// score bits, density, infectivity, candidate count — must be identical to
// an engine REBUILT FROM ONLY THE SURVIVORS. Nothing evicted may influence
// any serving answer.
func TestEvictCrosscheckSurvivorRebuild(t *testing.T) {
	e, pts := blobEngine(t)
	defer e.Close()
	ctx := context.Background()
	if len(clustersOf(e)) < 2 {
		t.Fatal("need ≥ 2 clusters — crosscheck is vacuous")
	}

	// Evict the whole second blob plus scattered noise and a few members of
	// the first blob.
	ids := []int{2, 7, 11}
	for i := 30; i < 60; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, 63, 71)
	n, err := e.Evict(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ids) {
		t.Fatalf("evicted %d, want %d", n, len(ids))
	}
	if st := e.Stats(); st.LiveN != len(pts)-len(ids) || st.Evicted != int64(len(ids)) {
		t.Fatalf("stats after evict: %+v", st)
	}

	rebuilt := survivorRestore(t, e)
	defer rebuilt.Close()
	sameAssigns(t, e, rebuilt, crossQueries(160))

	// Labels agree through the id mapping: every live point keeps its
	// cluster, every evicted point is noise.
	el := e.View().Labels.Flat()
	rl := rebuilt.View().Labels.Flat()
	ni := 0
	for id, l := range el {
		dead := false
		for _, d := range ids {
			if id == d {
				dead = true
				break
			}
		}
		if dead {
			if l != -1 {
				t.Fatalf("evicted point %d labeled %d", id, l)
			}
			continue
		}
		if rl[ni] != l {
			t.Fatalf("label of live point %d: evicted engine %d, rebuilt %d", id, l, rl[ni])
		}
		ni++
	}
}

// Snapshot v3 round trip with tombstones at the engine level: the restored
// engine serves bit-identically, a re-snapshot is byte-identical, and both
// engines stay in lockstep under further identical traffic (including
// further evictions).
func TestSnapshotCrosscheckAfterEvict(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	ctx := context.Background()
	ids := make([]int, 0, 34)
	for i := 0; i < 30; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, 61, 64, 67, 70)
	if _, err := e.Evict(ctx, ids); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	sameClusters(t, e, restored)
	sameAssigns(t, e, restored, crossQueries(120))
	if rs, es := restored.Stats(), e.Stats(); rs.LiveN != es.LiveN || rs.N != es.N {
		t.Fatalf("restored liveness %d/%d vs %d/%d", rs.LiveN, rs.N, es.LiveN, es.N)
	}

	var buf2 bytes.Buffer
	if err := restored.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-snapshot after evict differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}

	// Lockstep under identical further traffic and evictions.
	extra, _ := testutil.Blobs(85, [][]float64{{-20, -20}}, 30, 0.3, 0, 0, 1)
	for _, eng := range []*Engine{e, restored} {
		if err := eng.Ingest(ctx, extra); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Evict(ctx, []int{40, 41, 42}); err != nil {
			t.Fatal(err)
		}
	}
	sameClusters(t, e, restored)
	sameAssigns(t, e, restored, append(crossQueries(60), []float64{-20, -20}))
}

// Retention at the engine level: continuous ingest with MaxPoints keeps the
// published live count pinned at the window while N keeps growing, and the
// engine keeps serving throughout.
func TestEngineRetentionBoundsLiveSet(t *testing.T) {
	cfg := engineConfig()
	cfg.BatchSize = 40
	cfg.Retention = stream.Retention{MaxPoints: 100}
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	for wave := 0; wave < 8; wave++ {
		pts, _ := testutil.Blobs(int64(200+wave), [][]float64{{float64(wave * 30), 0}}, 40, 0.3, 0, 0, 1)
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
		if _, err := e.Assign([]float64{float64(wave * 30), 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.N != 320 || st.LiveN != 100 {
		t.Fatalf("final N=%d live=%d, want 320/100", st.N, st.LiveN)
	}
	if st.Evicted != 220 {
		t.Fatalf("evicted = %d, want 220", st.Evicted)
	}
	// Old blobs' clusters are gone; the latest blob still assigns.
	a, err := e.Assign([]float64{210, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster < 0 {
		t.Fatal("latest blob unassignable after retention")
	}
}

// MaxAge retention flows through the engine config (injected clock).
func TestEngineRetentionMaxAge(t *testing.T) {
	now := time.Unix(5000, 0)
	cfg := engineConfig()
	cfg.BatchSize = 1 << 30
	cfg.Retention = stream.Retention{MaxAge: time.Minute, Now: func() time.Time { return now }}
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	first, _ := testutil.Blobs(301, [][]float64{{0, 0}}, 30, 0.3, 0, 0, 1)
	if err := e.Ingest(ctx, first); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	second, _ := testutil.Blobs(302, [][]float64{{40, 40}}, 30, 0.3, 0, 0, 1)
	if err := e.Ingest(ctx, second); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.N != 60 || st.LiveN != 30 {
		t.Fatalf("N=%d live=%d, want 60/30 (first commit expired)", st.N, st.LiveN)
	}
}
