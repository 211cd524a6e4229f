package lsh

import (
	"testing"
)

// Acceptance-gate crosscheck for the segmented storage model: an index grown
// incrementally — builds, appends, publishes (which seal tails and trigger
// geometric segment merges) — must answer every read-path query bit-
// identically to a flat single-pass build over the same points. Same ids,
// same order, for CandidatesByID, Query, QueryInto, Buckets and Stats.
func TestSegmentedMatchesFlatBuild(t *testing.T) {
	pts := randPoints(21, 500, 6)
	cfg := Config{Projections: 7, Tables: 5, R: 2.5, Seed: 13}

	flat, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := Build(pts[:200], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Batch sizes chosen to exercise the merge schedule: small-small merges,
	// a publish with an empty tail, and a final unsealed tail.
	var snaps []*Index
	cut := 200
	for _, batch := range []int{50, 30, 80, 40, 60, 40} {
		if _, err := seg.Append(pts[cut : cut+batch]); err != nil {
			t.Fatal(err)
		}
		cut += batch
		snaps = append(snaps, seg.Publish())
	}
	snaps = append(snaps, seg.Publish()) // empty-tail publish
	if cut != len(pts) {
		t.Fatalf("test covers %d of %d points", cut, len(pts))
	}

	if seg.N() != flat.N() {
		t.Fatalf("N: segmented %d vs flat %d", seg.N(), flat.N())
	}
	for id := 0; id < flat.N(); id++ {
		sameIDs(t, flat.CandidatesByID(id), seg.CandidatesByID(id), "CandidatesByID")
	}
	sig := make([]int64, cfg.Projections)
	mark := make([]uint32, flat.N())
	var dst []int32
	var gen uint32
	for _, p := range pts[:80] {
		gen++
		dst = seg.QueryInto(p, sig, dst[:0], mark, gen)
		sameIDs(t, flat.Query(p), dst, "QueryInto")
	}

	fb, sb := flat.Buckets(1), seg.Buckets(1)
	if len(fb) != len(sb) {
		t.Fatalf("bucket counts %d vs %d", len(fb), len(sb))
	}
	for i := range fb {
		sameIDs(t, fb[i], sb[i], "Buckets")
	}

	fs, ss := flat.Stats(), seg.Stats()
	if fs.Buckets != ss.Buckets || fs.MaxBucketSize != ss.MaxBucketSize || fs.MeanBucketSize != ss.MeanBucketSize {
		t.Fatalf("stats differ: flat %+v vs segmented %+v", fs, ss)
	}

	// Every mid-stream snapshot must still answer exactly like a flat build
	// over its own prefix — published segments are frozen forever, merges on
	// the live index notwithstanding.
	for _, snap := range snaps {
		prefix, err := Build(pts[:snap.N()], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < snap.N(); id += 17 {
			sameIDs(t, prefix.CandidatesByID(id), snap.CandidatesByID(id), "snapshot CandidatesByID")
		}
	}
}

// A dump/restore round trip of a segmented (multi-segment, appended) index
// must answer identically through both the flat (v1) and chunked (v2) paths.
func TestSegmentedDumpRestore(t *testing.T) {
	pts := randPoints(23, 300, 5)
	cfg := Config{Projections: 6, Tables: 4, R: 2, Seed: 7}
	idx, err := Build(pts[:150], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][2]int{{150, 220}, {220, 300}} {
		if _, err := idx.Append(pts[batch[0]:batch[1]]); err != nil {
			t.Fatal(err)
		}
		idx.Publish()
	}

	dcfg, dim, flatTables := idx.dumpFlat()
	fromFlat, err := FromDumpChunks(dcfg, dim, idx.N(), flatTables, allLive)
	if err != nil {
		t.Fatal(err)
	}
	ccfg, cdim, chunkTables := idx.DumpChunks()
	fromChunks, err := FromDumpChunks(ccfg, cdim, idx.N(), chunkTables, allLive)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < idx.N(); id += 11 {
		want := idx.CandidatesByID(id)
		sameIDs(t, want, fromFlat.CandidatesByID(id), "flat CandidatesByID")
		sameIDs(t, want, fromChunks.CandidatesByID(id), "chunked CandidatesByID")
	}
}

func TestFromDumpChunksValidation(t *testing.T) {
	pts := randPoints(25, 100, 4)
	cfg := Config{Projections: 4, Tables: 2, R: 2, Seed: 1}
	idx, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, dim, tables := idx.DumpChunks()
	n := idx.N()
	if _, err := FromDumpChunks(dcfg, 0, n, tables, allLive); err == nil {
		t.Fatal("accepted zero dimension")
	}
	if _, err := FromDumpChunks(dcfg, dim, n, tables[:1], allLive); err == nil {
		t.Fatal("accepted table-count mismatch")
	}
	if _, err := FromDumpChunks(dcfg, dim, 0, tables, allLive); err == nil {
		t.Fatal("accepted an empty dump")
	}
	bad := make([]TableChunks, len(tables))
	copy(bad, tables)
	bad[1].KeyChunks = [][]uint64{tables[1].KeyChunks[0][:10]}
	if _, err := FromDumpChunks(dcfg, dim, n, bad, allLive); err == nil {
		t.Fatal("accepted ragged key chunks")
	}
}
