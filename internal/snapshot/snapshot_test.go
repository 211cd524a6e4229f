package snapshot

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/stream"
	"alid/internal/testutil"
)

func sample(t testing.TB) *Snapshot {
	t.Helper()
	pts, _ := testutil.Blobs(61, [][]float64{{0, 0}, {10, 10}}, 20, 0.3, 5, 0, 10)
	m, err := matrix.FromRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.4, P: 2}
	cfg.LSH = lsh.Config{Projections: 5, Tables: 4, R: 3, Seed: 7}
	idx, err := lsh.BuildMatrix(m, cfg.LSH)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, m.N)
	for i := range labels {
		labels[i] = -1
	}
	cl := &core.Cluster{
		Members: []int{0, 3, 5},
		Weights: []float64{0.5, 0.25, 0.25},
		Density: 0.91, Seed: 3, OuterIterations: 2, LIDIterations: 40, PeakEntries: 99,
	}
	for _, mb := range cl.Members {
		labels[mb] = 0
	}
	return &Snapshot{
		Core: cfg, BatchSize: 64,
		Mat: m, Index: idx,
		Clusters: []*core.Cluster{cl},
		Labels:   labels,
		Commits:  3,
	}
}

func TestRoundTripBitIdentical(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Core != s.Core {
		t.Fatalf("config: %+v vs %+v", got.Core, s.Core)
	}
	if got.BatchSize != s.BatchSize || got.Commits != s.Commits {
		t.Fatalf("batch/commits: %d/%d vs %d/%d", got.BatchSize, got.Commits, s.BatchSize, s.Commits)
	}
	if got.Mat.N != s.Mat.N || got.Mat.D != s.Mat.D {
		t.Fatalf("matrix shape %dx%d vs %dx%d", got.Mat.N, got.Mat.D, s.Mat.N, s.Mat.D)
	}
	if !sameChunks(got.Mat.DataChunks(), s.Mat.DataChunks()) {
		t.Fatal("matrix data differs")
	}
	if !sameChunks(got.Mat.NormChunks(), s.Mat.NormChunks()) {
		t.Fatal("norm cache differs")
	}
	if !slices.Equal(got.Labels, s.Labels) {
		t.Fatal("labels differ")
	}
	if len(got.Clusters) != 1 {
		t.Fatalf("%d clusters", len(got.Clusters))
	}
	gc, sc := got.Clusters[0], s.Clusters[0]
	if !slices.Equal(gc.Members, sc.Members) || !slices.Equal(gc.Weights, sc.Weights) ||
		gc.Density != sc.Density || gc.Seed != sc.Seed || gc.OuterIterations != sc.OuterIterations ||
		gc.LIDIterations != sc.LIDIterations || gc.PeakEntries != sc.PeakEntries {
		t.Fatalf("cluster differs: %+v vs %+v", gc, sc)
	}
	// The index must answer identically.
	for id := 0; id < s.Mat.N; id += 5 {
		a := candidates(s.Index, id)
		b := candidates(got.Index, id)
		if !slices.Equal(a, b) {
			t.Fatalf("index candidates differ at %d", id)
		}
	}
	// Writing the decoded snapshot reproduces the byte stream exactly.
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encode(decode(x)) != x")
	}
}

// The legacy v1 (flat-array) format loads into the same state as v2:
// identical matrix values, norms, labels and index answers (the v1 and v2
// golden files encode one engine state). Re-encoding it writes the v5 bytes
// the generating release wrote after restoring the same file: the compat
// shim re-chunks canonically and loses nothing.
func TestV1CompatRoundTrip(t *testing.T) {
	got, err := Read(bytes.NewReader(golden(t, "v1.snap")))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Read(bytes.NewReader(golden(t, "v2.snap")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Core != s.Core || got.BatchSize != s.BatchSize || got.Commits != s.Commits {
		t.Fatalf("v1 config/meta differ: %+v", got)
	}
	if !sameChunks(got.Mat.DataChunks(), s.Mat.DataChunks()) {
		t.Fatal("v1 matrix data differs")
	}
	if !sameChunks(got.Mat.NormChunks(), s.Mat.NormChunks()) {
		t.Fatal("v1 norm cache differs")
	}
	if !slices.Equal(got.Labels, s.Labels) {
		t.Fatal("v1 labels differ")
	}
	for id := 0; id < s.Mat.N; id += 5 {
		if !slices.Equal(candidates(s.Index, id), candidates(got.Index, id)) {
			t.Fatalf("v1 index candidates differ at %d", id)
		}
	}
	var v5 bytes.Buffer
	if err := Write(&v5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v5.Bytes(), golden(t, "v1.snap.want")) {
		t.Fatal("v5(v1-restored) != golden")
	}
}

// evictedSample builds a snapshot whose matrix and index carry tombstones,
// including one fully released matrix chunk, with labels and clusters
// consistent with the liveness (dead points are noise).
func evictedSample(t *testing.T) (*Snapshot, []int) {
	t.Helper()
	n := matrix.ChunkRows + 300
	rng := func() [][]float64 {
		pts, _ := testutil.Blobs(67, [][]float64{{0, 0}, {12, 12}}, n/2, 0.4, 0, 0, 12)
		return pts
	}()
	m, err := matrix.FromRows(rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.4, P: 2}
	cfg.LSH = lsh.Config{Projections: 5, Tables: 4, R: 3, Seed: 7}
	idx, err := lsh.BuildMatrix(m, cfg.LSH)
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]int, 0, matrix.ChunkRows+20)
	for i := 0; i < matrix.ChunkRows; i++ {
		dead = append(dead, i) // whole chunk 0 → released
	}
	for i := matrix.ChunkRows + 50; i < matrix.ChunkRows+70; i++ {
		dead = append(dead, i) // scattered tombstones in the tail chunk
	}
	if _, released := m.Evict(dead); len(released) != 1 {
		t.Fatalf("expected one released chunk, got %v", released)
	}
	idx.Evict(dead)

	labels := make([]int, m.N)
	for i := range labels {
		labels[i] = -1
	}
	cl := &core.Cluster{
		Members: []int{matrix.ChunkRows + 1, matrix.ChunkRows + 2, matrix.ChunkRows + 100},
		Weights: []float64{0.5, 0.25, 0.25},
		Density: 0.91, Seed: matrix.ChunkRows + 1, OuterIterations: 2, LIDIterations: 40, PeakEntries: 99,
	}
	for _, mb := range cl.Members {
		labels[mb] = 0
	}
	return &Snapshot{
		Core: cfg, BatchSize: 64,
		Retention: stream.Retention{MaxPoints: 5000, MaxAge: 90 * time.Second},
		Mat:       m, Index: idx,
		Clusters: []*core.Cluster{cl},
		Labels:   labels,
		Commits:  7,
	}, dead
}

// The v3 format persists tombstones and retention, restores them exactly
// (released chunks included), and stays a fixed point: re-encoding the
// decoded snapshot reproduces the bytes.
func TestV3TombstoneRoundTrip(t *testing.T) {
	s, dead := evictedSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Retention.MaxPoints != s.Retention.MaxPoints || got.Retention.MaxAge != s.Retention.MaxAge {
		t.Fatalf("retention %+v vs %+v", got.Retention, s.Retention)
	}
	if got.Mat.N != s.Mat.N || got.Mat.LiveCount() != s.Mat.LiveCount() {
		t.Fatalf("shape/liveness: %d/%d vs %d/%d", got.Mat.N, got.Mat.LiveCount(), s.Mat.N, s.Mat.LiveCount())
	}
	if !got.Mat.ChunkReleased(0) {
		t.Fatal("released chunk not restored as released")
	}
	for i := 0; i < s.Mat.N; i++ {
		if got.Mat.Live(i) != s.Mat.Live(i) {
			t.Fatalf("liveness differs at %d", i)
		}
	}
	if a, b := liveCount(got.Index), liveCount(s.Index); a != b {
		t.Fatalf("index live %d vs %d", a, b)
	}
	// Dead ids never surface; live answers identical.
	for id := matrix.ChunkRows; id < s.Mat.N; id += 7 {
		if !s.Mat.Live(id) {
			continue
		}
		a, b := candidates(s.Index, id), candidates(got.Index, id)
		if !slices.Equal(a, b) {
			t.Fatalf("index candidates differ at %d", id)
		}
		for _, c := range b {
			for _, d := range dead {
				if int(c) == d {
					t.Fatalf("dead id %d restored into a bucket", d)
				}
			}
		}
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("v3 encode(decode(x)) != x with tombstones")
	}
}

// The v2 shim stays readable and lossless: a golden v2 file decodes
// without tombstones or retention, and re-encodes to the golden v5 bytes —
// the same bytes as the v1 file of the same state.
func TestV2ShimGolden(t *testing.T) {
	got, err := Read(bytes.NewReader(golden(t, "v2.snap")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mat.Tombstoned() || got.Retention.Enabled() {
		t.Fatalf("v2 decoded tombstones or retention: %+v", got.Retention)
	}
	var v5 bytes.Buffer
	if err := Write(&v5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v5.Bytes(), golden(t, "v2.snap.want")) {
		t.Fatal("v5(v2-restored) != golden")
	}
	if !bytes.Equal(golden(t, "v1.snap.want"), golden(t, "v2.snap.want")) {
		t.Fatal("v1 and v2 files of one state restore differently")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

func TestReadRejectsFutureVersion(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[len(Magic):], Version+1)
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte (well past the header, before the CRC).
	b := append([]byte(nil), buf.Bytes()...)
	b[len(b)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(Magic) - 2, len(Magic) + 2, buf.Len() / 3, buf.Len() - 2} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteValidates(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Index: s.Index, Labels: nil}); err == nil {
		t.Fatal("empty matrix accepted")
	}
	bad := *s
	bad.Labels = s.Labels[:3]
	if err := Write(&buf, &bad); err == nil {
		t.Fatal("short labels accepted")
	}
}

// sameChunks reports whether two matrices' row (or norm) chunks hold the
// same values; chunking is a function of the row count alone.
func sameChunks(a, b [][]float64) bool { return slices.EqualFunc(a, b, slices.Equal[[]float64]) }

// candidates returns the live ids co-bucketed with id, in the index's
// deterministic order.
func candidates(ix index.Index, id int) []int32 {
	return ix.CandidatesByIDsInto([]int{id}, nil, make([]uint32, ix.N()), 1, nil)
}

// liveCount counts the ids the index still returns: every live id sits in
// exactly one bucket of table 0.
func liveCount(ix index.Index) int {
	n := 0
	ix.VisitLiveBuckets(func(table int, _ uint64, ids []int32) {
		if table == 0 {
			n += len(ids)
		}
	})
	return n
}
