package lsh

import (
	"math/rand"
	"testing"
)

func randPoints(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 3
		}
		pts[i] = p
	}
	return pts
}

func sameIDs(t *testing.T, a, b []int32, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: id %d: %d vs %d", label, i, a[i], b[i])
		}
	}
}

// The dump carries everything: a restored index must answer every read-path
// query identically (same ids, same order) to the index it was dumped from.
func TestDumpRestoreIdenticalQueries(t *testing.T) {
	pts := randPoints(3, 300, 6)
	cfg := Config{Projections: 8, Tables: 6, R: 2.5, Seed: 42}
	idx, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, dim, tables := idx.Dump()
	restored, err := FromDump(dcfg, dim, tables)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != idx.N() {
		t.Fatalf("N: %d vs %d", restored.N(), idx.N())
	}
	for id := 0; id < idx.N(); id += 7 {
		sameIDs(t, idx.CandidatesByID(id), restored.CandidatesByID(id), "CandidatesByID")
	}
	for _, p := range pts[:40] {
		sameIDs(t, idx.Query(p), restored.Query(p), "Query")
	}
	ib := idx.Buckets(2)
	rb := restored.Buckets(2)
	if len(ib) != len(rb) {
		t.Fatalf("bucket counts %d vs %d", len(ib), len(rb))
	}
	for i := range ib {
		sameIDs(t, ib[i], rb[i], "Buckets")
	}
}

func TestFromDumpValidation(t *testing.T) {
	pts := randPoints(5, 50, 4)
	idx, err := Build(pts, Config{Projections: 4, Tables: 3, R: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg, dim, tables := idx.Dump()
	if _, err := FromDump(cfg, 0, tables); err == nil {
		t.Fatal("accepted zero dimension")
	}
	if _, err := FromDump(cfg, dim, tables[:1]); err == nil {
		t.Fatal("accepted table-count mismatch")
	}
	bad := make([]TableDump, len(tables))
	copy(bad, tables)
	bad[1].Keys = bad[1].Keys[:10]
	if _, err := FromDump(cfg, dim, bad); err == nil {
		t.Fatal("accepted ragged key lists")
	}
}

// QueryInto is the scratch-supplied form of Query: same ids, same order.
func TestQueryIntoMatchesQuery(t *testing.T) {
	pts := randPoints(7, 200, 5)
	idx, err := Build(pts, Config{Projections: 6, Tables: 5, R: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sig := make([]int64, idx.SigLen())
	mark := make([]uint32, idx.N())
	var dst []int32
	var gen uint32
	for _, p := range pts[:60] {
		gen++
		dst = idx.QueryInto(p, sig, dst[:0], mark, gen)
		sameIDs(t, idx.Query(p), dst, "QueryInto")
	}
}

// Appending to the live index must leave a published snapshot untouched —
// the share-and-seal contract the streaming layer's frozen views rely on.
func TestPublishIsolatesAppends(t *testing.T) {
	pts := randPoints(11, 150, 4)
	idx, err := Build(pts, Config{Projections: 5, Tables: 4, R: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := idx.Publish()
	before := make([][]int32, snap.N())
	for id := range before {
		before[id] = snap.CandidatesByID(id)
	}
	// Append near-duplicates of existing points so buckets actually grow.
	extra := make([][]float64, 30)
	for i := range extra {
		extra[i] = append([]float64(nil), pts[i]...)
	}
	if _, err := idx.Append(extra); err != nil {
		t.Fatal(err)
	}
	if idx.N() != len(pts)+len(extra) {
		t.Fatalf("live N = %d", idx.N())
	}
	if snap.N() != len(pts) {
		t.Fatalf("snapshot N changed: %d", snap.N())
	}
	for id := range before {
		sameIDs(t, before[id], snap.CandidatesByID(id), "snapshot after live append")
	}
	// The appended points are visible in the live index and a fresh snapshot.
	if len(idx.CandidatesByID(0)) <= len(before[0]) {
		t.Fatal("live index did not grow candidates for duplicated point")
	}
	sameIDs(t, idx.CandidatesByID(0), idx.Publish().CandidatesByID(0), "fresh snapshot vs live")
}
