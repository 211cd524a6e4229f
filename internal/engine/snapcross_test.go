package engine

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"alid/internal/testutil"
)

// Acceptance-gate crosscheck (the snapshot counterpart of the root
// flatcross_test.go): save → load must round-trip BIT-identically. A
// restored engine's Clusters, Labels and — most importantly — every Assign
// answer (cluster, score, density, infectivity) must equal the live
// engine's exactly, down to the float bits.

// WriteSnapshot persists e's current published view as one standalone
// snapshot, the form these crosschecks compare byte for byte.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return e.writeSnapshotView(w, e.View())
}

func sameClusters(t *testing.T, live, restored *Engine) {
	t.Helper()
	a, b := clustersOf(live), clustersOf(restored)
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Density != b[i].Density {
			t.Fatalf("cluster %d density %v vs %v", i, a[i].Density, b[i].Density)
		}
		if a[i].Seed != b[i].Seed {
			t.Fatalf("cluster %d seed %d vs %d", i, a[i].Seed, b[i].Seed)
		}
		if len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("cluster %d sizes %d vs %d", i, len(a[i].Members), len(b[i].Members))
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				t.Fatalf("cluster %d member %d: %d vs %d", i, j, a[i].Members[j], b[i].Members[j])
			}
			if a[i].Weights[j] != b[i].Weights[j] {
				t.Fatalf("cluster %d weight %d: %v vs %v", i, j, a[i].Weights[j], b[i].Weights[j])
			}
		}
	}
	la, lb := live.View().Labels.Flat(), restored.View().Labels.Flat()
	if len(la) != len(lb) {
		t.Fatalf("label lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("label %d: %d vs %d", i, la[i], lb[i])
		}
	}
}

func sameAssigns(t *testing.T, live, restored Serving, queries [][]float64) {
	t.Helper()
	assigned := 0
	for qi, q := range queries {
		al, err := live.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := restored.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		if al != ar {
			t.Fatalf("query %d: live %+v vs restored %+v", qi, al, ar)
		}
		if al.Cluster >= 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("no query was assigned — crosscheck is vacuous")
	}
}

func crossQueries(n int) [][]float64 {
	rng := rand.New(rand.NewSource(77))
	out := make([][]float64, n)
	for i := range out {
		// Mix of in-blob, between-blob and far-out queries.
		switch i % 3 {
		case 0:
			out[i] = []float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4}
		case 1:
			out[i] = []float64{15 + rng.NormFloat64()*2, 15 + rng.NormFloat64()*2}
		default:
			out[i] = []float64{rng.Float64()*60 - 20, rng.Float64()*60 - 20}
		}
	}
	return out
}

func TestSnapshotCrosscheckAssignClusters(t *testing.T) {
	live, _ := blobEngine(t)
	defer live.Close()
	if len(clustersOf(live)) == 0 {
		t.Fatal("no clusters — crosscheck is vacuous")
	}

	var buf bytes.Buffer
	if err := live.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if restored.Config().Core != live.Config().Core {
		t.Fatalf("config round-trip: %+v vs %+v", restored.Config().Core, live.Config().Core)
	}
	sameClusters(t, live, restored)
	sameAssigns(t, live, restored, crossQueries(120))

	// A second snapshot of the restored engine must be byte-identical to the
	// first — the codec is a fixed point.
	var buf2 bytes.Buffer
	if err := restored.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

// The restored engine is fully live: it keeps ingesting and re-detecting,
// and stays in lockstep with the engine that wrote the snapshot when both
// receive the same subsequent stream.
func TestSnapshotRestoreContinuesStream(t *testing.T) {
	live, _ := blobEngine(t)
	defer live.Close()
	ctx := context.Background()

	var buf bytes.Buffer
	if err := live.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	extra, _ := testutil.Blobs(83, [][]float64{{-20, -20}}, 30, 0.3, 0, 0, 1)
	for _, e := range []*Engine{live, restored} {
		if err := e.Ingest(ctx, extra); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sameClusters(t, live, restored)
	queries := append(crossQueries(60), []float64{-20, -20}, []float64{-19.8, -20.3})
	sameAssigns(t, live, restored, queries)
}

// An engine restored from a LEGACY v1 snapshot file must serve
// bit-identically to the engine restored from the v5 bytes the generating
// release wrote after loading the same file, and re-encode to exactly those
// bytes — the v1→v5 migration path is lossless. Both restores go through
// LoadSharded, as one-shard saves.
func TestSnapshotV1CompatCrosscheck(t *testing.T) {
	restored, err := LoadSharded(filepath.Join(goldenDir, "v1.snap"), ShardedLoadOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	live, err := LoadSharded(filepath.Join(goldenDir, "v1.snap.want"), ShardedLoadOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	if restored.Config().Core != live.Config().Core {
		t.Fatalf("config round-trip: %+v vs %+v", restored.Config().Core, live.Config().Core)
	}
	sameClusters(t, live.shards[0], restored.shards[0])
	sameAssigns(t, live.shards[0], restored.shards[0], crossQueries(120))
	if got := shardBytes(t, restored)[0]; !bytes.Equal(got, goldenFile(t, "v1.snap.want")) {
		t.Fatalf("v5 re-snapshot after v1 restore differs: %d bytes", len(got))
	}
}
