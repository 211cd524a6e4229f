package stream

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"alid/internal/testutil"
)

// A restored clusterer that receives further arrivals into a non-empty
// pending buffer and then commits must end up indistinguishable from a
// clusterer that never went through the snapshot cycle: same labels, same
// clusters (members, weights, densities — bit-identical), same view
// answers. This covers the share-and-seal restore path: the restored side
// appends to structurally shared state taken from a published view.
func TestRestoreWithPendingBufferMatchesLive(t *testing.T) {
	initial, _ := testutil.Blobs(47, [][]float64{{0, 0}, {14, 14}}, 28, 0.3, 12, 0, 14)
	live, err := New(initial, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := live.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(live.Clusters()) == 0 {
		t.Fatal("no initial clusters — test is vacuous")
	}

	v := live.View()
	restored, err := RestoreGeneration(streamConfig(), v.Mat, v.Index, v.Clusters, v.Labels.Flat(), v.Commits, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Stream identical arrivals into both: infective points inside the
	// first blob, a brand-new far blob, and noise — below BatchSize so both
	// sit with a non-empty pending buffer.
	rng := rand.New(rand.NewSource(48))
	var arrivals [][]float64
	for i := 0; i < 12; i++ {
		arrivals = append(arrivals, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
	}
	for i := 0; i < 18; i++ {
		arrivals = append(arrivals, []float64{-10 + rng.NormFloat64()*0.3, -10 + rng.NormFloat64()*0.3})
	}
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, []float64{40 + rng.Float64()*10, -40 - rng.Float64()*10})
	}
	for _, p := range arrivals {
		if err := live.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(ctx, append([]float64(nil), p...)); err != nil {
			t.Fatal(err)
		}
	}
	if live.Pending() == 0 || live.Pending() != restored.Pending() {
		t.Fatalf("pending: live %d, restored %d — buffer must be non-empty and equal", live.Pending(), restored.Pending())
	}
	if err := live.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := restored.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	if live.N() != restored.N() || live.Commits() != restored.Commits() {
		t.Fatalf("n=%d/%d commits=%d/%d", live.N(), restored.N(), live.Commits(), restored.Commits())
	}
	if !slices.Equal(live.Labels(), restored.Labels()) {
		t.Fatal("labels diverge after restore+commit")
	}
	lc, rc := live.Clusters(), restored.Clusters()
	if len(lc) != len(rc) {
		t.Fatalf("cluster counts %d vs %d", len(lc), len(rc))
	}
	for i := range lc {
		if lc[i].Density != rc[i].Density || lc[i].Seed != rc[i].Seed {
			t.Fatalf("cluster %d: density %v/%v seed %d/%d", i, lc[i].Density, rc[i].Density, lc[i].Seed, rc[i].Seed)
		}
		if !slices.Equal(lc[i].Members, rc[i].Members) || !slices.Equal(lc[i].Weights, rc[i].Weights) {
			t.Fatalf("cluster %d membership diverges", i)
		}
	}

	// The published views agree too: same index answers over all points.
	lv, rv := live.View(), restored.View()
	if lv.Mat.N != rv.Mat.N || lv.Index.N() != rv.Index.N() {
		t.Fatalf("view sizes diverge: mat %d/%d index %d/%d", lv.Mat.N, rv.Mat.N, lv.Index.N(), rv.Index.N())
	}
	for id := 0; id < lv.Index.N(); id += 7 {
		if !slices.Equal(candidates(lv.Index, id), candidates(rv.Index, id)) {
			t.Fatalf("view index candidates diverge at %d", id)
		}
		if !slices.Equal(lv.Mat.Row(id), rv.Mat.Row(id)) {
			t.Fatalf("view matrix rows diverge at %d", id)
		}
	}
	checkLabelClusterConsistency(t, live)
	checkLabelClusterConsistency(t, restored)
}
