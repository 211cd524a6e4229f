package lsh

import (
	"testing"
)

// evictFixture builds an evicted index over pts with every third id dead
// (plus an entire KeyChunk-aligned range when n allows it), the survivor
// point set, and the old-id → survivor-id mapping.
func evictFixture(t *testing.T, pts [][]float64, cfg Config, dead func(id int) bool) (*Index, [][]float64, []int32) {
	t.Helper()
	idx, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var deadIDs []int
	var survivors [][]float64
	remap := make([]int32, len(pts)) // old id → survivor id, -1 dead
	for id := range pts {
		if dead(id) {
			deadIDs = append(deadIDs, id)
			remap[id] = -1
		} else {
			remap[id] = int32(len(survivors))
			survivors = append(survivors, pts[id])
		}
	}
	if got := idx.Evict(deadIDs); got != len(deadIDs) {
		t.Fatalf("Evict counted %d, want %d", got, len(deadIDs))
	}
	return idx, survivors, remap
}

// mapIDs translates an evicted index's candidate list (old ids, dead ones
// absent) into survivor-index ids.
func mapIDs(t *testing.T, ids []int32, remap []int32) []int32 {
	t.Helper()
	out := make([]int32, len(ids))
	for k, id := range ids {
		if remap[id] < 0 {
			t.Fatalf("dead id %d surfaced in a query answer", id)
		}
		out[k] = remap[id]
	}
	return out
}

// Acceptance-gate crosscheck of the tombstone model: after Evict, every
// query against the evicted index must be bit-identical (same points, same
// order) to an index BUILT FROM ONLY THE SURVIVORS. The old→new id mapping
// is monotone, so order equality is meaningful.
func TestEvictedMatchesSurvivorBuild(t *testing.T) {
	pts := randPoints(31, 600, 6)
	cfg := Config{Projections: 7, Tables: 5, R: 2.5, Seed: 13}
	idx, survivors, remap := evictFixture(t, pts, cfg, func(id int) bool { return id%3 == 0 })

	rebuilt, err := Build(survivors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Live() != rebuilt.N() {
		t.Fatalf("live %d vs rebuilt %d", idx.Live(), rebuilt.N())
	}

	for _, p := range pts[:100] {
		sameIDs(t, rebuilt.Query(p), mapIDs(t, idx.Query(p), remap), "Query")
	}
	for id := 0; id < len(pts); id++ {
		if remap[id] < 0 {
			continue
		}
		want := rebuilt.CandidatesByID(int(remap[id]))
		sameIDs(t, want, mapIDs(t, idx.CandidatesByID(id), remap), "CandidatesByID")
	}
	sig := make([]int64, cfg.Projections)
	mark := make([]uint32, len(pts))
	var gen uint32
	var dst []int32
	for _, p := range pts[:100] {
		gen++
		dst = idx.QueryInto(p, sig, dst[:0], mark, gen)
		sameIDs(t, rebuilt.Query(p), mapIDs(t, dst, remap), "QueryInto")
	}

	// Buckets and Stats see only survivors too.
	ib, rb := idx.Buckets(1), rebuilt.Buckets(1)
	if len(ib) != len(rb) {
		t.Fatalf("bucket counts %d vs %d", len(ib), len(rb))
	}
	for i := range ib {
		sameIDs(t, rb[i], mapIDs(t, ib[i], remap), "Buckets")
	}
	is, rs := idx.Stats(), rebuilt.Stats()
	if is.Buckets != rs.Buckets || is.MaxBucketSize != rs.MaxBucketSize || is.MeanBucketSize != rs.MeanBucketSize {
		t.Fatalf("stats differ: evicted %+v vs rebuilt %+v", is, rs)
	}
}

// Compaction must PHYSICALLY drop tombstones without changing any answer:
// after enough publishes (geometric merges plus the full-compaction
// backstop once dead outnumber live) the evicted index holds no resident
// dead, and still answers exactly like the survivor build.
func TestEvictCompactionDropsDeadKeepsAnswers(t *testing.T) {
	pts := randPoints(33, 900, 5)
	cfg := Config{Projections: 6, Tables: 4, R: 2.5, Seed: 7}
	idx, err := Build(pts[:300], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends, evictions and publishes: kill the oldest 200 ids
	// in two waves while appending the remaining points in batches.
	cut := 300
	wave := 0
	for _, batch := range []int{150, 150, 100, 100, 100} {
		if _, err := idx.Append(pts[cut : cut+batch]); err != nil {
			t.Fatal(err)
		}
		cut += batch
		if wave < 2 {
			ids := make([]int, 100)
			for k := range ids {
				ids[k] = wave*100 + k
			}
			if got := idx.Evict(ids); got != 100 {
				t.Fatalf("evict wave %d counted %d", wave, got)
			}
			wave++
		}
		idx.Publish()
	}
	if cut != len(pts) {
		t.Fatalf("covered %d of %d points", cut, len(pts))
	}
	// Force the backstop: kill everything but the last 150 ids, then publish.
	var ids []int
	for id := 200; id < len(pts)-150; id++ {
		ids = append(ids, id)
	}
	idx.Evict(ids)
	snap := idx.Publish()

	if live := idx.Live(); live != 150 {
		t.Fatalf("live %d, want 150", live)
	}
	for t2 := range idx.tables {
		if r := idx.tables[t2].deadResident; r > idx.Live() {
			t.Fatalf("table %d kept %d resident dead after full-compaction backstop (live %d)", t2, r, idx.Live())
		}
	}

	survivors := pts[len(pts)-150:]
	rebuilt, err := Build(survivors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	remap := make([]int32, len(pts))
	for id := range remap {
		if id < len(pts)-150 {
			remap[id] = -1
		} else {
			remap[id] = int32(id - (len(pts) - 150))
		}
	}
	for _, p := range pts[:120] {
		sameIDs(t, rebuilt.Query(p), mapIDs(t, idx.Query(p), remap), "post-compaction Query")
		sameIDs(t, rebuilt.Query(p), mapIDs(t, snap.Query(p), remap), "snapshot Query")
	}
}

// Published snapshots are isolated from later evictions: a snapshot taken
// before an Evict keeps answering with the then-live ids.
func TestEvictSnapshotIsolation(t *testing.T) {
	pts := randPoints(35, 400, 5)
	cfg := Config{Projections: 6, Tables: 4, R: 2.5, Seed: 3}
	idx, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx.Evict([]int{1, 2, 3})
	before := idx.Publish()
	wantCands := make([][]int32, 0, 40)
	for id := 10; id < 50; id++ {
		wantCands = append(wantCands, append([]int32(nil), before.CandidatesByID(id)...))
	}

	var more []int
	for id := 4; id < 200; id++ {
		more = append(more, id)
	}
	idx.Evict(more)
	idx.Publish()

	for k, id := 0, 10; id < 50; id++ {
		sameIDs(t, wantCands[k], before.CandidatesByID(id), "snapshot CandidatesByID after live evict")
		k++
	}
	// And the live side did lose them.
	if idx.Live() != len(pts)-199 {
		t.Fatalf("live %d, want %d", idx.Live(), len(pts)-199)
	}
}

// A full-chunk eviction releases the inverted-list storage; a dump/restore
// through the liveness-aware chunked path (the v3 codec's constructor)
// answers exactly like the evicted original.
func TestEvictKeyChunkReleaseAndRestore(t *testing.T) {
	n := KeyChunk + 500
	pts := randPoints(37, n, 4)
	cfg := Config{Projections: 5, Tables: 3, R: 2.5, Seed: 5}
	idx, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, KeyChunk)
	for k := range ids {
		ids[k] = k
	}
	if got := idx.Evict(ids); got != KeyChunk {
		t.Fatalf("evicted %d", got)
	}
	for t2 := range idx.tables {
		if idx.tables[t2].keys.chunks[0] != nil {
			t.Fatalf("table %d key chunk 0 not released", t2)
		}
	}

	dcfg, dim, tables := idx.DumpChunks()
	restored, err := FromDumpChunks(dcfg, dim, n, tables, func(id int) bool { return id >= KeyChunk })
	if err != nil {
		t.Fatal(err)
	}
	if restored.Live() != 500 {
		t.Fatalf("restored live %d, want 500", restored.Live())
	}
	for id := KeyChunk; id < n; id += 13 {
		sameIDs(t, idx.CandidatesByID(id), restored.CandidatesByID(id), "restored CandidatesByID")
	}
	for _, p := range pts[:60] {
		sameIDs(t, idx.Query(p), restored.Query(p), "restored Query")
	}

	// Validation: an empty chunk whose range still has live ids is rejected.
	if _, err := FromDumpChunks(dcfg, dim, n, tables, func(id int) bool { return id != 0 }); err == nil {
		t.Fatal("released chunk with live ids accepted")
	}
}
