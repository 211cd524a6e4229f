package stream

import (
	"context"
	"math"
	"slices"
	"testing"

	"alid/internal/core"
	"alid/internal/matrix"
	"alid/internal/testutil"
	"alid/internal/vec"
)

// CompactGeneration's id-map contract: live ids are renumbered densely in
// order (dead ids have no successor), every row and label moves with its
// id, and the ever-seen counter keeps counting released ids across
// generations.
func TestCompactGenerationIDMapContract(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.Blobs(9, [][]float64{{0, 0}, {15, 15}}, 15, 0.3, 0, 0, 15)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	oldLabels := c.Labels()

	dead := []int{1, 3, 5}
	if _, err := c.Evict(ctx, dead); err != nil {
		t.Fatal(err)
	}
	released, err := c.CompactGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if released != len(dead) {
		t.Fatalf("released %d, want %d", released, len(dead))
	}
	if c.Generation() != 1 || c.N() != len(pts)-len(dead) || c.EverSeenIDs() != len(pts) {
		t.Fatalf("generation=%d n=%d ever=%d, want 1/%d/%d",
			c.Generation(), c.N(), c.EverSeenIDs(), len(pts)-len(dead), len(pts))
	}

	isDead := map[int]bool{1: true, 3: true, 5: true}
	next := 0
	newLabels := c.Labels()
	for old := range pts {
		if isDead[old] {
			continue
		}
		if !slices.Equal(c.mat.Row(next), pts[old]) {
			t.Fatalf("live id %d: row %d holds %v, want its row %v", old, next, c.mat.Row(next), pts[old])
		}
		if newLabels[next] != oldLabels[old] {
			t.Fatalf("id %d→%d label %d, want %d", old, next, newLabels[next], oldLabels[old])
		}
		next++
	}

	// A second generation renumbers generation 1's ids; ever-seen keeps the
	// full history.
	if _, err := c.Evict(ctx, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompactGeneration(); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 2 || c.EverSeenIDs() != len(pts) || c.N() != len(pts)-len(dead)-1 {
		t.Fatalf("second compaction: generation=%d ever=%d n=%d", c.Generation(), c.EverSeenIDs(), c.N())
	}
	if !slices.Equal(c.mat.Row(0), pts[2]) {
		t.Fatalf("generation-2 id 0 holds %v, want the row of original id 2", c.mat.Row(0))
	}
}

// A restore adopts rows as saved (FromChunks checks no norm), so a save
// written by an older release can hold a finite row whose squared norm
// overflows, which FromRows refuses. Compacting over it must still work:
// the row keeps its place and its +Inf norm, and the evicted ids go.
func TestCompactGenerationKeepsRestoredNonFiniteRow(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.Blobs(12, [][]float64{{0, 0}, {15, 15}}, 15, 0.3, 0, 0, 15)
	pts = append(pts, []float64{1e200, 0})
	var data, norms []float64
	for _, p := range pts {
		data = append(data, p...)
		norms = append(norms, vec.Dot(p, p))
	}
	mat, err := matrix.FromChunks([][]float64{data}, [][]float64{norms}, len(pts), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamConfig()
	idx, err := core.BuildIndex(mat, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RestoreGeneration(cfg, mat, idx, nil, slices.Repeat([]int{-1}, len(pts)), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evict(ctx, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	released, err := c.CompactGeneration()
	if err != nil {
		t.Fatalf("compaction over a restored row with a +Inf norm: %v", err)
	}
	last := c.N() - 1
	if released != 3 || c.N() != len(pts)-3 || !slices.Equal(c.mat.Row(last), []float64{1e200, 0}) || !math.IsInf(c.mat.NormSq(last), 1) {
		t.Fatalf("released %d, n %d, last row %v norm %v; want 3, %d, [1e+200 0] +Inf",
			released, c.N(), c.mat.Row(last), c.mat.NormSq(last), len(pts)-3)
	}
}

// Compacting with nothing tombstoned is a no-op: no renumbering, no
// generation bump.
func TestCompactGenerationNoOpWithoutTombstones(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.Blobs(10, [][]float64{{0, 0}}, 20, 0.3, 0, 0, 1)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	released, err := c.CompactGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if released != 0 || c.Generation() != 0 {
		t.Fatalf("no-op compaction: released=%d generation=%d", released, c.Generation())
	}
}

// Evicting EVERYTHING and compacting resets to the empty pre-first-commit
// state — and the stream must come back: new points get fresh dense ids and
// detection works again in the new generation.
func TestCompactGenerationAllDeadResets(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.Blobs(11, [][]float64{{0, 0}}, 12, 0.3, 0, 0, 1)
	c, err := New(pts, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	commits := c.Commits()
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	if _, err := c.Evict(ctx, all); err != nil {
		t.Fatal(err)
	}
	released, err := c.CompactGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if released != len(pts) || c.N() != 0 || c.Generation() != 1 || c.EverSeenIDs() != len(pts) {
		t.Fatalf("all-dead compaction: released=%d n=%d generation=%d ever=%d",
			released, c.N(), c.Generation(), c.EverSeenIDs())
	}
	if c.Commits() != commits {
		t.Fatalf("commit count reset: %d, want %d", c.Commits(), commits)
	}

	fresh, _ := testutil.Blobs(12, [][]float64{{5, 5}}, 25, 0.3, 0, 0, 1)
	for _, p := range fresh {
		if err := c.Add(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if c.N() != len(fresh) || len(c.Clusters()) == 0 {
		t.Fatalf("post-reset stream: n=%d clusters=%d", c.N(), len(c.Clusters()))
	}
	if c.EverSeenIDs() != len(pts)+len(fresh) {
		t.Fatalf("ever-seen after rebirth: %d, want %d", c.EverSeenIDs(), len(pts)+len(fresh))
	}
}
