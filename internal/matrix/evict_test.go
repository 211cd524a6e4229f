package matrix

import (
	"math/rand"
	"testing"
)

func TestEvictMarksDeadAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := FromRows(randRows(rng, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tombstoned() {
		t.Fatal("fresh matrix reports tombstones")
	}
	evicted, released := m.Evict([]int{3, 7, 7, 50})
	if evicted != 3 {
		t.Fatalf("evicted %d, want 3 (dup skipped)", evicted)
	}
	if len(released) != 0 {
		t.Fatalf("released %v, want none", released)
	}
	if m.LiveCount() != 97 || !m.Tombstoned() {
		t.Fatalf("live %d tombstoned %v", m.LiveCount(), m.Tombstoned())
	}
	for i := 0; i < 100; i++ {
		want := i != 3 && i != 7 && i != 50
		if m.Live(i) != want {
			t.Fatalf("Live(%d) = %v, want %v", i, m.Live(i), want)
		}
	}
	// Re-evicting dead rows is a no-op.
	if again, _ := m.Evict([]int{3, 7}); again != 0 {
		t.Fatalf("re-evict counted %d", again)
	}
	// Live rows still readable and bit-identical.
	if got := m.Row(4); len(got) != 3 {
		t.Fatalf("row 4 unreadable after eviction: %v", got)
	}
}

// A full chunk whose rows all die is physically released; the matrix keeps
// appending past it and row ids stay stable.
func TestEvictReleasesFullyDeadChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := ChunkRows + 10
	m, err := FromRows(randRows(rng, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, ChunkRows)
	for i := range ids {
		ids[i] = i
	}
	evicted, released := m.Evict(ids)
	if evicted != ChunkRows {
		t.Fatalf("evicted %d, want %d", evicted, ChunkRows)
	}
	if len(released) != 1 || released[0] != 0 {
		t.Fatalf("released %v, want [0]", released)
	}
	if !m.ChunkReleased(0) {
		t.Fatal("chunk 0 not released")
	}
	if m.LiveCount() != 10 {
		t.Fatalf("live %d, want 10", m.LiveCount())
	}
	// Rows beyond the released chunk keep their ids and their bytes.
	row := append([]float64(nil), m.Row(ChunkRows+3)...)
	first, err := m.AppendRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if first != n {
		t.Fatalf("append after release starts at %d, want %d", first, n)
	}
	for j := range row {
		if m.Row(ChunkRows + 3)[j] != row[j] {
			t.Fatal("surviving row mutated by append after release")
		}
	}
	if got := m.Row(n + 1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("appended row = %v", got)
	}
	if m.LiveCount() != 12 {
		t.Fatalf("live %d after append, want 12", m.LiveCount())
	}
}

// A partial tail cannot be released while appends may still land in it: the
// release only happens once the chunk is full AND fully dead.
func TestEvictPartialTailNotReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := FromRows(randRows(rng, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if evicted, released := m.Evict([]int{0, 1, 2, 3, 4, 5, 6, 7}); evicted != 8 || len(released) != 0 {
		t.Fatalf("evicted %d released %v", evicted, released)
	}
	if m.ChunkReleased(0) {
		t.Fatal("partial tail released")
	}
	if _, err := m.AppendRows([][]float64{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if !m.Live(8) || m.LiveCount() != 1 {
		t.Fatalf("appended row not live: live=%v count=%d", m.Live(8), m.LiveCount())
	}
}

// Snapshots are isolated from later evictions (copy-on-write bitmaps) and
// from chunk release (the snapshot keeps its own chunk references).
func TestEvictSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := ChunkRows + 50
	m, err := FromRows(randRows(rng, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ev, _ := m.Evict([]int{5}); ev != 1 {
		t.Fatal("seed eviction failed")
	}
	snap := m.Snapshot()

	ids := make([]int, 0, ChunkRows)
	for i := 0; i < ChunkRows; i++ {
		if i != 5 {
			ids = append(ids, i)
		}
	}
	row100 := append([]float64(nil), m.Row(100)...)
	if _, released := m.Evict(ids); len(released) != 1 {
		t.Fatal("chunk 0 not released on live side")
	}
	// The snapshot still sees the pre-eviction liveness and the row data.
	if !snap.Live(100) || snap.Live(5) {
		t.Fatalf("snapshot liveness drifted: Live(100)=%v Live(5)=%v", snap.Live(100), snap.Live(5))
	}
	if snap.LiveCount() != n-1 {
		t.Fatalf("snapshot live %d, want %d", snap.LiveCount(), n-1)
	}
	for j := range row100 {
		if snap.Row(100)[j] != row100[j] {
			t.Fatal("snapshot row mutated by live-side eviction")
		}
	}
	// And the reverse: evicting on the snapshot does not disturb the live side.
	if ev, _ := snap.Evict([]int{ChunkRows + 30}); ev != 1 {
		t.Fatal("snapshot eviction failed")
	}
	if !m.Live(ChunkRows + 30) {
		t.Fatal("snapshot eviction leaked into the live matrix")
	}
}

func TestFromChunksLiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 2*ChunkRows + 17
	m, err := FromRows(randRows(rng, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, ChunkRows+3)
	for i := 0; i < ChunkRows; i++ {
		ids = append(ids, i) // chunk 0 fully dead → released
	}
	ids = append(ids, ChunkRows+1, ChunkRows+2, n-1)
	if _, released := m.Evict(ids); len(released) != 1 {
		t.Fatal("expected chunk 0 release")
	}

	r, err := FromChunksLive(m.DataChunks(), m.NormChunks(), m.LiveChunks(), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveCount() != m.LiveCount() || r.N != m.N {
		t.Fatalf("restored live %d/%d, want %d/%d", r.LiveCount(), r.N, m.LiveCount(), m.N)
	}
	if !r.ChunkReleased(0) {
		t.Fatal("restored chunk 0 not released")
	}
	for i := ChunkRows; i < n; i++ {
		if r.Live(i) != m.Live(i) {
			t.Fatalf("restored Live(%d) = %v", i, r.Live(i))
		}
		if m.Live(i) && r.NormSq(i) != m.NormSq(i) {
			t.Fatalf("restored norm %d differs", i)
		}
	}

	// Corrupt inputs are rejected: an empty chunk that still has live rows.
	data := append([][]float64(nil), m.DataChunks()...)
	norms := append([][]float64(nil), m.NormChunks()...)
	data[1], norms[1] = nil, nil
	if _, err := FromChunksLive(data, norms, m.LiveChunks(), n, 2); err == nil {
		t.Fatal("empty chunk with live rows accepted")
	}
}
