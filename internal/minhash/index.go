package minhash

import (
	"fmt"

	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/matrix"
)

// Index is the banded MinHash candidate index: one bucket table per band,
// keyed by the band's Rows signature values. It is a thin wrapper over an
// internal/lsh index whose hash functions are the basis-vector rows described
// in the package comment, so every structural behavior — share-and-seal
// publishing, deterministic ascending-id bucket fill, tombstones, geometric
// compaction, chunked dumps — is inherited from lsh unchanged, and the
// conformance contract of internal/index holds by construction.
type Index struct {
	cfg   Config
	inner *lsh.Index
}

var _ index.Index = (*Index)(nil)

// lshConfig maps the MinHash parameters onto the underlying bucket store:
// one table per band, Rows lanes per key, unit width (the basis "projection"
// with offset 0.5 makes each lane floor(v_j + 0.5)).
func lshConfig(cfg Config) lsh.Config {
	return lsh.Config{Projections: cfg.Rows, Tables: cfg.Bands, R: 1, Seed: cfg.Seed}
}

// hashes builds the basis-vector hash tables: band t's row j selects
// signature coordinate t·Rows+j, offset 0.5 rounds it half-up.
func hashes(cfg Config) (proj, off [][]float64) {
	dim := cfg.SigLen()
	proj = make([][]float64, cfg.Bands)
	off = make([][]float64, cfg.Bands)
	for t := 0; t < cfg.Bands; t++ {
		p := make([]float64, cfg.Rows*dim)
		o := make([]float64, cfg.Rows)
		for j := 0; j < cfg.Rows; j++ {
			p[j*dim+t*cfg.Rows+j] = 1
			o[j] = 0.5
		}
		proj[t], off[t] = p, o
	}
	return proj, off
}

// New returns an empty index for cfg; populate with Append.
func New(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	proj, off := hashes(cfg)
	inner, err := lsh.NewEmptyWithHashes(lshConfig(cfg), cfg.SigLen(), proj, off)
	if err != nil {
		return nil, fmt.Errorf("minhash: %w", err)
	}
	return &Index{cfg: cfg, inner: inner}, nil
}

// BuildMatrix indexes every row of a signature matrix (the committed-store
// form the streaming layer holds). The matrix width must equal SigLen.
func BuildMatrix(m *matrix.Matrix, cfg Config) (*Index, error) {
	ix, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if m.N > 0 {
		if m.D != cfg.SigLen() {
			return nil, fmt.Errorf("minhash: matrix dimension %d, want %d (bands %d × rows %d)", m.D, cfg.SigLen(), cfg.Bands, cfg.Rows)
		}
		rows := make([][]float64, m.N)
		for i := range rows {
			rows[i] = m.Row(i)
		}
		if _, err := ix.inner.Append(rows); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Config returns the MinHash parameters.
func (ix *Index) Config() Config { return ix.cfg }

// Backend names the implementation for the snapshot codec and router.
func (ix *Index) Backend() string { return index.BackendMinHash }

// N is the number of indexed signatures, evicted ids included.
func (ix *Index) N() int { return ix.inner.N() }

// Dim is the signature length Bands·Rows.
func (ix *Index) Dim() int { return ix.inner.Dim() }

// SigLen is the per-table scratch length (Rows lanes per band key).
func (ix *Index) SigLen() int { return ix.inner.SigLen() }

// Tables is the band count.
func (ix *Index) Tables() int { return ix.inner.Tables() }

// Append hashes additional signatures, assigning the next ids in order.
func (ix *Index) Append(sigs [][]float64) (int, error) { return ix.inner.Append(sigs) }

// Evict tombstones ids exactly as internal/lsh does.
func (ix *Index) Evict(ids []int) int { return ix.inner.Evict(ids) }

// Publish seals the mutable tail and returns an immutable snapshot sharing
// sealed state with the live index (lsh's share-and-seal, inherited).
func (ix *Index) Publish() *Index { return &Index{cfg: ix.cfg, inner: ix.inner.Publish()} }

// PublishIndex is Publish behind the backend-neutral seam.
func (ix *Index) PublishIndex() index.Index { return ix.Publish() }

// QueryInto is the allocation-free query path; see index.Index.
func (ix *Index) QueryInto(v []float64, sig []int64, dst []int32, mark []uint32, gen uint32) []int32 {
	return ix.inner.QueryInto(v, sig, dst, mark, gen)
}

// BucketKeys fills keys[t] with v's bucket key in band t.
func (ix *Index) BucketKeys(v []float64, sig []int64, keys []uint64) {
	ix.inner.BucketKeys(v, sig, keys)
}

// VisitLiveBuckets calls f once per (band, non-empty bucket); see index.Index.
func (ix *Index) VisitLiveBuckets(f func(table int, key uint64, ids []int32)) {
	ix.inner.VisitLiveBuckets(f)
}

// CandidatesByIDsInto is the multi-id read CIVS makes; see index.Index.
func (ix *Index) CandidatesByIDsInto(ids []int, dst []int32, mark []uint32, gen uint32, seen *index.BucketSet) []int32 {
	return ix.inner.CandidatesByIDsInto(ids, dst, mark, gen, seen)
}

// Buckets returns every bucket with more than minSize live members in
// deterministic (band, key) order.
func (ix *Index) Buckets(minSize int) [][]int32 { return ix.inner.Buckets(minSize) }

// Compactions is the cumulative segment-merge count.
func (ix *Index) Compactions() int64 { return ix.inner.Compactions() }

// Stats summarizes bucket shape for diagnostics.
func (ix *Index) Stats() index.Stats { return ix.inner.Stats() }

// KeyChunks exports the per-band inverted lists in canonical chunked form
// for the snapshot codec. The hash tables themselves are not serialized —
// they are a pure function of Config and are rebuilt on restore. Chunks
// alias index storage and must be treated as read-only.
func (ix *Index) KeyChunks() [][][]uint64 {
	_, _, tables := ix.inner.DumpChunks()
	out := make([][][]uint64, len(tables))
	for t := range tables {
		out[t] = tables[t].KeyChunks
	}
	return out
}

// fromChunks assembles the lsh restore input: reconstructed basis hashes
// plus the dumped key chunks.
func fromChunks(cfg Config, chunks [][][]uint64) ([]lsh.TableChunks, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(chunks) != cfg.Bands {
		return nil, fmt.Errorf("minhash: dump has %d tables, config says %d bands", len(chunks), cfg.Bands)
	}
	proj, off := hashes(cfg)
	tables := make([]lsh.TableChunks, cfg.Bands)
	for t := range tables {
		tables[t] = lsh.TableChunks{Proj: proj[t], Off: off[t], KeyChunks: chunks[t]}
	}
	return tables, nil
}

// FromKeyChunks reconstructs an index of n ids from dumped key chunks and
// per-id liveness, exactly as lsh.FromDumpChunks does for the dense backend:
// every bucket is rebuilt into a single sealed base segment in ascending id
// order, dead ids dropped, so the restored index answers bit-identically to
// the dumped one.
func FromKeyChunks(cfg Config, n int, chunks [][][]uint64, live func(id int) bool) (*Index, error) {
	tables, err := fromChunks(cfg, chunks)
	if err != nil {
		return nil, err
	}
	inner, err := lsh.FromDumpChunks(lshConfig(cfg), cfg.SigLen(), n, tables, live)
	if err != nil {
		return nil, err
	}
	return &Index{cfg: cfg, inner: inner}, nil
}
