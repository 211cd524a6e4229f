// Package snapshot is the versioned binary codec for persisted engine state:
// the committed matrix (coordinates AND the cached squared norms), the LSH
// index (hash parameters, seed, and every inverted list — buckets are a
// deterministic function of the lists and are rebuilt on load), the
// maintained clusters, the per-point labels, and the full detection
// configuration. Everything round-trips bit-identically: floats are encoded
// as their IEEE-754 bit patterns, so a restored engine answers every
// Assign/Clusters query exactly as the engine that saved it — crash-restart
// without re-detection.
//
// Format (version 2), little-endian throughout:
//
//	magic "ALIDSNAP" | u32 version | payload | u32 CRC-32 (IEEE) of payload
//
// The payload is a flat sequence of fixed-width fields and length-prefixed
// arrays in the order written by Write. No varints, no compression: the
// format optimizes for auditability and bit-exactness, not size.
//
// Version 2 serializes the segmented storage introduced by the share-and-
// seal refactor: matrix rows and norms are written per canonical chunk
// (matrix.ChunkRows rows each) and each table's inverted list per canonical
// key chunk (lsh.KeyChunk keys each), exactly as held in memory. The writer
// therefore streams chunk slices without materializing an O(n·d) flat copy,
// and the reader adopts the decoded chunks directly into segmented storage
// (matrix.FromChunks, lsh.FromDumpChunks) without re-chunking. Because
// canonical chunk boundaries are a pure function of N, writing a restored
// snapshot reproduces the original bytes — the codec stays a fixed point.
// Runtime bucket segmentation is NOT persisted: it only shapes future
// publish costs, never query answers, and restore rebuilds each table as a
// single sealed base segment.
//
// Version 3 adds eviction state: the retention policy (max points / max
// age) joins the config block, every matrix chunk carries a liveness bitmap
// (length 0 when the matrix never evicted, matrix.LiveWords words
// otherwise), and released chunks — fully dead ranges whose storage was
// reclaimed — are written as zero-length arrays, both for matrix chunks and
// for inverted-list key chunks. The index's tombstones are not written
// twice: they are the matrix's liveness, re-derived on load (the stream
// layer keeps the two in lockstep), and restore physically drops dead ids
// while rebuilding buckets, so a restored index starts compacted yet
// answers exactly like the evicted one. Because release is a deterministic
// function of liveness (a full, fully-dead chunk is always released),
// re-encoding a restored v3 snapshot reproduces the original bytes — the
// codec remains a fixed point.
//
// Version 4 makes the payload backend-tagged: the config block grows the
// Jaccard kernel flag, a backend tag (0 = lsh, 1 = minhash) and the MinHash
// parameters, and the index section is written in the tagged backend's
// format — the dense lsh section is byte-for-byte the v3 layout, while the
// minhash section stores only its parameters and chunked inverted lists
// (the basis hash tables are a pure function of the parameters and are
// rebuilt on load). Restoring a snapshot into an engine configured with the
// other backend fails with ErrBackendMismatch rather than silently
// reinterpreting signatures as coordinates.
//
// Version 5 adds the generation tag: the config block grows the stream's
// generation counter, so an engine whose ids were renumbered by a generation
// compaction restores with its id-lifecycle intact (the generation number
// and the ever-seen accounting). The rest of the payload is byte-for-byte the v4
// layout — a generation-0 v5 snapshot differs from its v4 encoding only in
// the version word and those eight bytes.
//
// Versions 1 (flat arrays), 2 (segmented, no tombstones), 3 (untagged
// dense) and 4 (backend-tagged, generation-free) are still read via
// compatibility shims, but only v5 is ever written. Golden files under
// testdata/golden, written by the last release that had the old writers,
// pin every shim: each decodes and re-encodes to the v5 bytes that release
// produced.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"time"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/minhash"
	"alid/internal/stream"
)

// Magic identifies a snapshot stream.
const Magic = "ALIDSNAP"

// Version is the current format version (backend-tagged payload + the
// generation tag).
const Version = 5

// VersionV4 is the backend-tagged, generation-free format, still readable.
const VersionV4 = 4

// VersionV3 is the untagged dense format (segmented + tombstones +
// retention), still readable.
const VersionV3 = 3

// VersionV2 is the segmented, tombstone-free format, still readable.
const VersionV2 = 2

// VersionV1 is the legacy flat-array format, still readable.
const VersionV1 = 1

// Backend tags of the v4 config block.
const (
	backendTagLSH     = 0
	backendTagMinHash = 1
)

// ErrBackendMismatch is returned (wrapped, with both backend names) when a
// snapshot's index backend differs from the one the caller expects — e.g.
// restoring a minhash snapshot into an engine configured for dense vectors.
var ErrBackendMismatch = errors.New("index backend mismatch")

// maxSliceLen bounds every decoded length prefix. Decoders additionally
// grow slices as bytes actually arrive (append, never make(n) up front), so
// a corrupt length hits EOF or the CRC check after allocating at most ~2×
// the real payload — never a length-prefix-sized giant allocation.
const maxSliceLen = 1 << 40

// Snapshot is the persisted engine state.
type Snapshot struct {
	// Core is the full detection configuration, so a restart needs no
	// external config to keep detecting exactly as before.
	Core core.Config
	// BatchSize is the stream commit batch size.
	BatchSize int
	// Retention is the stream's eviction policy (MaxPoints and MaxAge only;
	// the test clock is a runtime knob). Written since v3; zero when read
	// from older snapshots.
	Retention stream.Retention
	// Mat holds the committed points (signatures, for set backends) and
	// their cached norms.
	Mat *matrix.Matrix
	// Index is the candidate index over Mat: *lsh.Index or *minhash.Index,
	// matching Core.Backend.
	Index index.Index
	// Clusters are the maintained dominant clusters.
	Clusters []*core.Cluster
	// Labels is the per-point assignment (-1 noise), len Mat.N.
	Labels []int
	// Commits is the stream's batch-commit counter.
	Commits int
	// Generation is the stream's id-generation counter (bumped by every
	// generation compaction). Written since v5; zero when read from older
	// snapshots, which predate renumbering.
	Generation int
	// RetiredIDs counts ids released by past compactions: RetiredIDs + Mat.N
	// is the number of ids ever minted, so the ever-seen accounting stays
	// monotone across restarts. Written since v5; zero when read from older
	// snapshots (nonzero requires Generation > 0, so older formats could
	// never have held it anyway).
	RetiredIDs int
}

type writer struct {
	w   io.Writer
	crc hash.Hash32
	buf [8]byte
	err error
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return
	}
	w.crc.Write(p)
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.write([]byte{1})
	} else {
		w.write([]byte{0})
	}
}

func (w *writer) f64s(v []float64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) u64s(v []uint64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}

func (w *writer) ints(v []int) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.i64(int64(x))
	}
}

func validate(s *Snapshot) error {
	if s.Mat == nil || s.Mat.N == 0 {
		return fmt.Errorf("snapshot: empty matrix")
	}
	if s.Index == nil {
		return fmt.Errorf("snapshot: nil index")
	}
	if len(s.Labels) != s.Mat.N {
		return fmt.Errorf("snapshot: %d labels for %d points", len(s.Labels), s.Mat.N)
	}
	return nil
}

func (w *writer) config(s *Snapshot) {
	c := s.Core
	w.f64(c.Kernel.K)
	w.f64(c.Kernel.P)
	w.i64(int64(c.LSH.Projections))
	w.i64(int64(c.LSH.Tables))
	w.f64(c.LSH.R)
	w.i64(c.LSH.Seed)
	w.i64(int64(c.Delta))
	w.i64(int64(c.MaxOuter))
	w.i64(int64(c.MaxLID))
	w.f64(c.Tol)
	w.f64(c.FirstRadius)
	w.f64(c.DensityThreshold)
	w.i64(int64(c.MinClusterSize))
	w.boolean(c.SingleQueryCIVS)
	w.boolean(c.FixedROIGrowth)
	w.i64(int64(s.BatchSize))
	w.i64(int64(s.Retention.MaxPoints))
	w.i64(int64(s.Retention.MaxAge))
	w.boolean(c.Kernel.Jaccard)
	switch index.Normalize(c.Backend) {
	case index.BackendMinHash:
		w.u32(backendTagMinHash)
	default:
		w.u32(backendTagLSH)
	}
	w.i64(int64(c.MinHash.Bands))
	w.i64(int64(c.MinHash.Rows))
	w.i64(c.MinHash.Seed)
	w.i64(int64(s.Generation))
	w.i64(int64(s.RetiredIDs))
}

func (w *writer) clusters(s *Snapshot) {
	w.u64(uint64(len(s.Clusters)))
	for _, cl := range s.Clusters {
		w.ints(cl.Members)
		w.f64s(cl.Weights)
		w.f64(cl.Density)
		w.i64(int64(cl.Seed))
		w.i64(int64(cl.OuterIterations))
		w.i64(int64(cl.LIDIterations))
		w.i64(int64(cl.PeakEntries))
	}
}

func finish(bw *bufio.Writer, w *writer) error {
	if w.err != nil {
		return fmt.Errorf("snapshot: %w", w.err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], w.crc.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Write encodes s in the current (v5, backend-tagged + generation) format:
// matrix data, norms and liveness per canonical chunk, inverted lists per
// canonical key chunk, released chunks as zero-length arrays — no flat
// materialization. The stream is buffered internally; the caller owns any
// underlying file and its sync/close.
func Write(out io.Writer, s *Snapshot) error {
	if err := validate(s); err != nil {
		return err
	}
	if got, want := index.Normalize(s.Index.Backend()), index.Normalize(s.Core.Backend); got != want {
		return fmt.Errorf("snapshot: config names backend %q but index is %q: %w", want, got, ErrBackendMismatch)
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w := &writer{w: bw, crc: crc32.NewIEEE()}
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.u32(Version)
	w.config(s)

	// Matrix: shape, then per-chunk rows, norms and liveness,
	// interleaved so each chunk is self-contained. Released chunks write
	// zero-length data and norms; a never-evicted matrix writes zero-length
	// liveness per chunk.
	dataChunks := s.Mat.DataChunks()
	normChunks := s.Mat.NormChunks()
	liveChunks := s.Mat.LiveChunks()
	w.u64(uint64(s.Mat.N))
	w.u64(uint64(s.Mat.D))
	w.u64(uint64(len(dataChunks)))
	for c := range dataChunks {
		w.f64s(dataChunks[c])
		w.f64s(normChunks[c])
		if liveChunks == nil {
			w.u64(0)
		} else {
			w.u64s(liveChunks[c])
		}
	}

	// Index section, in the backend's format. Tombstones are not written in
	// either — they are the matrix's liveness, re-derived on load.
	switch idx := s.Index.(type) {
	case *lsh.Index:
		// Dense: config again (the index may have been built under a config
		// that has since changed), then per-table parameters + chunked
		// inverted lists. Byte-identical to the v3 layout.
		icfg, dim, tables := idx.DumpChunks()
		w.i64(int64(icfg.Projections))
		w.i64(int64(icfg.Tables))
		w.f64(icfg.R)
		w.i64(icfg.Seed)
		w.u64(uint64(dim))
		w.u64(uint64(len(tables)))
		for _, tb := range tables {
			w.f64s(tb.Proj)
			w.f64s(tb.Off)
			w.u64(uint64(len(tb.KeyChunks)))
			for _, kc := range tb.KeyChunks {
				w.u64s(kc)
			}
		}
	case *minhash.Index:
		// MinHash: parameters + chunked inverted lists only. The basis hash
		// tables are a pure function of the parameters; restore rebuilds
		// them, so no projections or offsets are stored.
		mcfg := idx.Config()
		w.i64(int64(mcfg.Bands))
		w.i64(int64(mcfg.Rows))
		w.i64(mcfg.Seed)
		chunks := idx.KeyChunks()
		w.u64(uint64(len(chunks)))
		for _, tb := range chunks {
			w.u64(uint64(len(tb)))
			for _, kc := range tb {
				w.u64s(kc)
			}
		}
	default:
		return fmt.Errorf("snapshot: unsupported index type %T", s.Index)
	}

	w.clusters(s)
	w.ints(s.Labels)
	w.u64(uint64(s.Commits))
	return finish(bw, w)
}

type reader struct {
	r   io.Reader
	crc hash.Hash32
	buf [8]byte
	err error
}

func (r *reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = err
		return
	}
	r.crc.Write(p)
}

func (r *reader) u32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

func (r *reader) u64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool {
	r.read(r.buf[:1])
	return r.err == nil && r.buf[0] != 0
}

func (r *reader) length(what string) int {
	n := r.u64()
	if r.err == nil && n > maxSliceLen {
		r.err = fmt.Errorf("implausible %s length %d", what, n)
	}
	return int(n)
}

func (r *reader) f64s(what string) []float64 {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, r.f64())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) u64s(what string) []uint64 {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	var out []uint64
	for i := 0; i < n; i++ {
		out = append(out, r.u64())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) ints(what string) []int {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, int(r.i64()))
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) config(s *Snapshot, version uint32) {
	s.Core.Kernel = affinity.Kernel{K: r.f64(), P: r.f64()}
	s.Core.LSH = lsh.Config{
		Projections: int(r.i64()),
		Tables:      int(r.i64()),
		R:           r.f64(),
		Seed:        r.i64(),
	}
	s.Core.Delta = int(r.i64())
	s.Core.MaxOuter = int(r.i64())
	s.Core.MaxLID = int(r.i64())
	s.Core.Tol = r.f64()
	s.Core.FirstRadius = r.f64()
	s.Core.DensityThreshold = r.f64()
	s.Core.MinClusterSize = int(r.i64())
	s.Core.SingleQueryCIVS = r.boolean()
	s.Core.FixedROIGrowth = r.boolean()
	s.BatchSize = int(r.i64())
	if version >= VersionV3 {
		s.Retention.MaxPoints = int(r.i64())
		s.Retention.MaxAge = time.Duration(r.i64())
	}
	if version >= VersionV4 {
		s.Core.Kernel.Jaccard = r.boolean()
		switch tag := r.u32(); tag {
		case backendTagMinHash:
			s.Core.Backend = index.BackendMinHash
		case backendTagLSH:
			// Decoded as the zero value, which Normalize maps to the dense
			// backend: a config that never named a backend round-trips equal.
			s.Core.Backend = ""
		default:
			if r.err == nil {
				r.err = fmt.Errorf("unknown index backend tag %d", tag)
			}
		}
		s.Core.MinHash = minhash.Config{
			Bands: int(r.i64()),
			Rows:  int(r.i64()),
			Seed:  r.i64(),
		}
	}
	if version >= Version {
		s.Generation = int(r.i64())
		if r.err == nil && s.Generation < 0 {
			r.err = fmt.Errorf("negative generation %d", s.Generation)
		}
		s.RetiredIDs = int(r.i64())
		if r.err == nil && s.RetiredIDs < 0 {
			r.err = fmt.Errorf("negative retired-id count %d", s.RetiredIDs)
		}
		if r.err == nil && s.RetiredIDs > 0 && s.Generation == 0 {
			r.err = fmt.Errorf("retired-id count %d at generation 0 (ids are only retired by compactions)", s.RetiredIDs)
		}
	}
}

func (r *reader) indexConfig() (lsh.Config, int) {
	cfg := lsh.Config{
		Projections: int(r.i64()),
		Tables:      int(r.i64()),
		R:           r.f64(),
		Seed:        r.i64(),
	}
	return cfg, int(r.u64())
}

func (r *reader) clusters(s *Snapshot) error {
	nClusters := r.length("cluster list")
	for i := 0; r.err == nil && i < nClusters; i++ {
		cl := &core.Cluster{
			Members: r.ints("members"),
			Weights: r.f64s("weights"),
		}
		cl.Density = r.f64()
		cl.Seed = int(r.i64())
		cl.OuterIterations = int(r.i64())
		cl.LIDIterations = int(r.i64())
		cl.PeakEntries = int(r.i64())
		if r.err != nil {
			break
		}
		if len(cl.Members) != len(cl.Weights) {
			return fmt.Errorf("snapshot: cluster %d has %d members but %d weights", i, len(cl.Members), len(cl.Weights))
		}
		s.Clusters = append(s.Clusters, cl)
	}
	return nil
}

// readSegmented decodes the segmented payloads (v2: chunked matrix +
// chunked inverted lists, adopted without re-chunking; v3: additionally
// per-chunk liveness bitmaps and released chunks).
func (r *reader) readSegmented(s *Snapshot, version uint32) error {
	r.config(s, version)

	n := int(r.u64())
	d := int(r.u64())
	nChunks := r.length("matrix chunk list")
	var dataChunks, normChunks [][]float64
	var liveChunks [][]uint64
	tombstoned := false
	for c := 0; r.err == nil && c < nChunks; c++ {
		dataChunks = append(dataChunks, r.f64s("matrix data chunk"))
		normChunks = append(normChunks, r.f64s("matrix norm chunk"))
		if version >= VersionV3 {
			lw := r.u64s("matrix live chunk")
			if len(lw) > 0 {
				tombstoned = true
			}
			liveChunks = append(liveChunks, lw)
		}
	}
	if r.err == nil {
		var m *matrix.Matrix
		var err error
		if tombstoned {
			m, err = matrix.FromChunksLive(dataChunks, normChunks, liveChunks, n, d)
		} else {
			m, err = matrix.FromChunks(dataChunks, normChunks, n, d)
		}
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		s.Mat = m
	}

	if version >= VersionV4 && index.Normalize(s.Core.Backend) == index.BackendMinHash {
		mcfg := minhash.Config{
			Bands: int(r.i64()),
			Rows:  int(r.i64()),
			Seed:  r.i64(),
		}
		nTables := r.length("table list")
		var chunks [][][]uint64
		for t := 0; r.err == nil && t < nTables; t++ {
			nKeyChunks := r.length("key chunk list")
			var tb [][]uint64
			for c := 0; r.err == nil && c < nKeyChunks; c++ {
				tb = append(tb, r.u64s("key chunk"))
			}
			chunks = append(chunks, tb)
		}
		if r.err == nil {
			if err := mcfg.Validate(); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			if mcfg.SigLen() != s.Mat.D {
				return fmt.Errorf("snapshot: minhash signatures hold %d×%d values, matrix rows %d", mcfg.Bands, mcfg.Rows, s.Mat.D)
			}
			idx, err := minhash.FromKeyChunks(mcfg, s.Mat.N, chunks, s.Mat.Live)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			s.Index = idx
		}
	} else {
		icfg, idim := r.indexConfig()
		nTables := r.length("table list")
		var tables []lsh.TableChunks
		for t := 0; r.err == nil && t < nTables; t++ {
			tb := lsh.TableChunks{
				Proj: r.f64s("projections"),
				Off:  r.f64s("offsets"),
			}
			nKeyChunks := r.length("key chunk list")
			for c := 0; r.err == nil && c < nKeyChunks; c++ {
				tb.KeyChunks = append(tb.KeyChunks, r.u64s("key chunk"))
			}
			tables = append(tables, tb)
		}
		if r.err == nil {
			// The index's tombstones are the matrix's liveness (the stream
			// keeps them in lockstep); dead ids are physically dropped while
			// rebuilding buckets.
			idx, err := lsh.FromDumpChunks(icfg, idim, s.Mat.N, tables, s.Mat.Live)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			s.Index = idx
		}
	}

	if err := r.clusters(s); err != nil {
		return err
	}
	s.Labels = r.ints("labels")
	s.Commits = int(r.u64())
	return nil
}

// readV1 decodes the legacy flat payload, re-chunking into segmented
// storage via the compat constructors (stored norms and key order are
// preserved exactly, so the restored state answers bit-identically).
func (r *reader) readV1(s *Snapshot) error {
	r.config(s, VersionV1)

	n := int(r.u64())
	d := int(r.u64())
	data := r.f64s("matrix data")
	norms := r.f64s("matrix norms")
	if r.err == nil {
		m, err := matrix.FromFlat(data, n, d, norms)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		s.Mat = m
	}

	icfg, idim := r.indexConfig()
	nTables := r.length("table list")
	var tables []lsh.TableChunks
	for t := 0; r.err == nil && t < nTables; t++ {
		tables = append(tables, lsh.TableChunks{
			Proj:      r.f64s("projections"),
			Off:       r.f64s("offsets"),
			KeyChunks: lsh.ChunkKeys(r.u64s("keys")),
		})
	}
	if r.err == nil {
		idx, err := lsh.FromDumpChunks(icfg, idim, s.Mat.N, tables, s.Mat.Live)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		s.Index = idx
	}

	if err := r.clusters(s); err != nil {
		return err
	}
	s.Labels = r.ints("labels")
	s.Commits = int(r.u64())
	return nil
}

// Read decodes and validates a snapshot, verifying magic, version and CRC.
// The current generation-tagged format (v5), the backend-tagged format
// (v4), the untagged dense format (v3), the segmented format (v2) and the
// legacy flat format (v1) are all accepted; either way the restored state
// answers every query bit-identically to the state that was written.
func Read(in io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(in, 1<<20)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", magic)
	}
	r := &reader{r: br, crc: crc32.NewIEEE()}
	version := r.u32()
	if r.err == nil && version != Version && version != VersionV4 && version != VersionV3 && version != VersionV2 && version != VersionV1 {
		return nil, fmt.Errorf("snapshot: unsupported version %d (have %d)", version, Version)
	}

	s := &Snapshot{}
	var err error
	if version == VersionV1 {
		err = r.readV1(s)
	} else {
		err = r.readSegmented(s, version)
	}
	if err != nil {
		return nil, err
	}

	if r.err != nil {
		return nil, fmt.Errorf("snapshot: %w", r.err)
	}
	sum := r.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("snapshot: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch: stored %08x, computed %08x", got, sum)
	}
	if len(s.Labels) != s.Mat.N {
		return nil, fmt.Errorf("snapshot: %d labels for %d points", len(s.Labels), s.Mat.N)
	}
	return s, nil
}
