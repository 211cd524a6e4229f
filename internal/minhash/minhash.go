// Package minhash implements the banded MinHash set backend behind the
// internal/index seam: ALID's pipeline over sets instead of dense vectors.
//
// The scheme is the classic one popularized for internet-scale domain search
// (LSH Ensemble, PVLDB 2016): every set is summarized by k = Bands·Rows
// MinHash values — position j keeps the minimum of a per-position 32-bit hash
// over the set's elements — and the signature is split into Bands bands of
// Rows values each. Two sets land in the same bucket of band t iff their
// signatures agree on all Rows positions of that band, which happens with
// probability J^Rows for Jaccard similarity J; Bands independent chances turn
// that into the usual 1 − (1 − J^Rows)^Bands S-curve.
//
// Signatures are carried as []float64 — every 32-bit hash minimum is exact in
// a float64 — so the whole dense pipeline (matrix storage, affinity columns,
// streaming commits, the serving engine's scratch) runs unchanged over sets.
// The Jaccard affinity kernel (affinity.Kernel{Jaccard: true}) estimates set
// distance from the same signatures, and the index below reuses the entire
// share-and-seal bucket store of internal/lsh by expressing each band as a
// basis-vector "projection" table: band t's Rows hash rows are the standard
// basis vectors e_{t·Rows+j} with offset 0.5 and width R = 1, so lsh's
// floor((a·v + b)/R) lane is exactly floor(v_j + 0.5) — the rounded signature
// value — and its folded table key is exactly a banded MinHash bucket key.
// Segments, tombstones, compaction, publish snapshots and the chunked dump
// formats are inherited bit-for-bit.
package minhash

import (
	"fmt"
	"math"
)

// hashBits is the width of each per-position hash; minima therefore fit a
// float64 exactly (2^32 < 2^53), which is what lets signatures ride the dense
// []float64 pipeline without loss.
const hashBits = 32

// Config holds the banded MinHash parameters.
type Config struct {
	// Bands is the number of bands — one hash table (bucket family) each.
	Bands int
	// Rows is the number of MinHash values per band; a bucket collision
	// requires agreement on all of them.
	Rows int
	// Seed salts the per-position hash functions.
	Seed int64
}

// DefaultConfig returns the serving default: 16 bands of 4 rows (64 hash
// values), a mid-curve choice that fires around J ≈ 0.5.
func DefaultConfig() Config { return Config{Bands: 16, Rows: 4, Seed: 1} }

// MaxSigLen bounds the signature length Bands·Rows. The banded index keeps
// one Rows×SigLen projection per band, SigLen² values in all, so the bound
// keeps a misconfiguration, or a crafted snapshot, from asking for
// gigabytes.
const MaxSigLen = 1 << 10

// Validate reports whether the parameters are usable.
func (c Config) Validate() error {
	if c.Bands <= 0 {
		return fmt.Errorf("minhash: bands must be positive, got %d", c.Bands)
	}
	if c.Rows <= 0 {
		return fmt.Errorf("minhash: rows per band must be positive, got %d", c.Rows)
	}
	if c.Bands > MaxSigLen || c.Rows > MaxSigLen/c.Bands {
		return fmt.Errorf("minhash: %d bands × %d rows exceeds %d hash positions", c.Bands, c.Rows, MaxSigLen)
	}
	return nil
}

// SigLen returns the total signature length Bands·Rows — the dimensionality
// of the float64 vectors the rest of the pipeline sees.
func (c Config) SigLen() int { return c.Bands * c.Rows }

// fnv64a is the 64-bit FNV-1a hash of s — the per-element base hash the k
// per-position hashes are derived from, so each element is scanned once.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
// XORing a per-position salt into an element's base hash and finalizing
// yields k independent-enough hash functions from one element scan.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// salts returns the k per-position salts for cfg, derived from the seed by a
// splitmix64 counter stream. Deterministic: same config, same hash family.
func salts(cfg Config) []uint64 {
	k := cfg.SigLen()
	out := make([]uint64, k)
	s := uint64(cfg.Seed) * 0x9e3779b97f4a7c15
	for j := range out {
		s += 0x9e3779b97f4a7c15
		out[j] = mix64(s)
	}
	return out
}

// Signature computes the MinHash signature of a set: position j holds the
// minimum over the set's elements of the j-th 32-bit hash, as a float64
// (exact — see hashBits). Duplicate elements are harmless (min is
// idempotent); the empty set has no minima and is rejected. Deterministic in
// the element multiset: order does not matter.
func Signature(elements []string, cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(elements) == 0 {
		return nil, fmt.Errorf("minhash: empty set has no signature")
	}
	k := cfg.SigLen()
	mins := make([]uint32, k)
	for j := range mins {
		mins[j] = math.MaxUint32
	}
	sl := salts(cfg)
	for _, e := range elements {
		base := fnv64a(e)
		for j, salt := range sl {
			h := uint32(mix64(base^salt) >> (64 - hashBits))
			if h < mins[j] {
				mins[j] = h
			}
		}
	}
	sig := make([]float64, k)
	for j, m := range mins {
		sig[j] = float64(m)
	}
	return sig, nil
}

// Signatures maps Signature over a batch of sets, reporting the index of the
// first offending set on error.
func Signatures(sets [][]string, cfg Config) ([][]float64, error) {
	out := make([][]float64, len(sets))
	for i, set := range sets {
		sig, err := Signature(set, cfg)
		if err != nil {
			return nil, fmt.Errorf("set %d: %w", i, err)
		}
		out[i] = sig
	}
	return out, nil
}
