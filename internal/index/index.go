// Package index defines the backend-neutral candidate-index seam between
// ALID's pipeline and its locality-sensitive index implementations.
//
// ALID's CIVS stage (paper §4.3) only requires *some* locality-sensitive
// candidate generator: a structure that maps each point to one bucket key
// per table and answers "which live points share a bucket with this query".
// The paper's p-stable LSH over dense vectors (internal/lsh) is one
// instance; banded MinHash over set signatures (internal/minhash) is
// another. Everything downstream — peeling, streaming commits and dirtiness
// checks, the serving engine's Assign/batch pipeline, eviction, retention,
// sharding and the snapshot codec — programs against this interface and
// never names a concrete backend.
//
// The interface holds only what the pipeline calls; candidate reads take
// caller scratch and do not allocate. Contract highlights every
// implementation must honor (they are what the pipeline's standing
// bit-identical invariants rest on; the backend conformance suite in
// conformance_test.go makes them executable):
//
//   - Deterministic candidate order: QueryInto enumerates tables in order
//     and bucket members in ascending id order; CandidatesByIDsInto walks
//     its query ids in order, each query's tables in order and each
//     bucket's members in ascending id order, visiting a (table, bucket)
//     only for the first query that hashes into it. Both are identical to a
//     flat single-segment build at any GOMAXPROCS.
//   - Share-and-seal publishing: PublishIndex returns an immutable snapshot
//     sharing sealed state with the live index; later Append/Evict on the
//     live side never disturb it.
//   - Tombstone semantics: after Evict, every read path answers exactly as
//     an index built over only the survivors.
//   - Reads (QueryInto, CandidatesByIDsInto, Buckets, Stats) are safe for
//     unlimited concurrency; Append, PublishIndex and Evict are writer-side
//     and must be serialized by the caller (the streaming layer's single
//     writer).
package index

// Index is a locality-sensitive candidate index over the committed matrix.
// Point ids are dense [0, N): id i is row i of the matrix the index was
// built over, and Append assigns the next ids in order.
type Index interface {
	// Backend names the implementation ("lsh", "minhash"); the snapshot
	// codec tags payloads with it and refuses cross-backend restores.
	Backend() string
	// N is the number of indexed points, evicted ids included.
	N() int
	// Dim is the vector dimensionality the index hashes (for set backends:
	// the signature length).
	Dim() int
	// SigLen is the per-table signature scratch length QueryInto and
	// BucketKeys require (callers size their pooled scratch from it).
	SigLen() int
	// Tables is the table count — the length BucketKeys requires of its
	// keys scratch.
	Tables() int

	// Append hashes additional points into the existing tables, assigning
	// them the next ids, and returns the id of the first appended point.
	// Writer-side.
	Append(pts [][]float64) (int, error)
	// Evict tombstones ids: every read path skips them from now on, exactly
	// as if the index held only the survivors. Already-dead ids are skipped;
	// out-of-range ids panic. Returns the newly evicted count. Writer-side.
	Evict(ids []int) int
	// PublishIndex seals the mutable tail and returns an immutable snapshot
	// sharing sealed state with the live index (the backend-neutral form of
	// the concrete backends' covariantly-typed Publish). Writer-side.
	PublishIndex() Index

	// QueryInto is the allocation-free query path: sig is caller scratch of
	// length SigLen, mark/gen a marker-value dedup array of length N.
	// Candidate order is deterministic: tables in order, members ascending.
	QueryInto(v []float64, sig []int64, dst []int32, mark []uint32, gen uint32) []int32
	// BucketKeys fills keys[t] with v's bucket key in table t without
	// touching any bucket; sig is scratch of length SigLen, keys of length
	// Tables. The batched serving path resolves candidate clusters from
	// these keys via its per-generation bucket→cluster summary.
	BucketKeys(v []float64, sig []int64, keys []uint64)
	// VisitLiveBuckets calls f once per (table, non-empty bucket) with the
	// bucket's live member ids in ascending id order. The ids slice may
	// alias index storage and is valid only for the duration of the call.
	VisitLiveBuckets(f func(table int, key uint64, ids []int32))
	// CandidatesByIDsInto appends the live ids co-bucketed in any table with
	// any of the (live) query ids, excluding the query ids themselves, using
	// the stored inverted list; mark/gen dedup as in QueryInto, and every
	// query id is marked up front. A (table, bucket) pair is walked once,
	// for the first query that hashes into it: seen records the walked
	// pairs under gen (nil is allowed for a single id, which cannot repeat
	// a pair). The order equals walking each query id in turn and dropping
	// the query ids from the result. CIVS reads a whole support with one
	// call; the stream's dirtiness check passes one id.
	CandidatesByIDsInto(ids []int, dst []int32, mark []uint32, gen uint32, seen *BucketSet) []int32
	// Buckets returns every bucket with more than minSize live members in a
	// deterministic order (by table, then bucket key) — PALID's seed pool.
	Buckets(minSize int) [][]int32

	// Compactions is the cumulative segment-merge count (diagnostics).
	Compactions() int64
	// Stats summarizes bucket shape for diagnostics.
	Stats() Stats
}

// Stats summarizes an index for diagnostics.
type Stats struct {
	Tables         int
	Buckets        int
	MaxBucketSize  int
	MeanBucketSize float64
	// Segments is the total sealed-segment count across tables (tails
	// included when non-empty) — the share-and-seal bookkeeping reads merge.
	Segments int
}

// Backend names.
const (
	// BackendLSH is the p-stable dense-vector backend (internal/lsh) — the
	// default when a configuration names no backend.
	BackendLSH = "lsh"
	// BackendMinHash is the banded MinHash set backend (internal/minhash).
	BackendMinHash = "minhash"
)

// Normalize maps a configured backend string to its canonical name: the
// empty string is the dense default.
func Normalize(backend string) string {
	if backend == "" {
		return BackendLSH
	}
	return backend
}

// BucketSet is the caller-owned set of (table, bucket key) pairs one
// CandidatesByIDsInto call has walked. Entries are stamped with the call's
// marker value, so a new value starts an empty set without clearing it; a
// caller that wraps its marker value back to a used one must Reset the set
// along with its mark array. The zero value is ready to use, and once the
// set has grown to the largest read it allocates nothing.
type BucketSet struct {
	slots []bucketSlot
	mask  uint64
}

type bucketSlot struct {
	key   uint64
	table int32
	gen   uint32
}

// Prepare sizes the set for up to n pairs under a new marker value. An
// existing table is reused when it keeps the load at or below one half.
func (s *BucketSet) Prepare(n int) {
	if 2*n <= len(s.slots) {
		return
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	s.slots = make([]bucketSlot, size)
	s.mask = uint64(size - 1)
}

// Visit records (table, key) under gen and reports whether it is new, i.e.
// not yet recorded under gen. The set must have been prepared for every
// pair recorded under gen.
func (s *BucketSet) Visit(table int, key uint64, gen uint32) bool {
	h := (key ^ uint64(table)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	for i := (h ^ h>>32) & s.mask; ; i = (i + 1) & s.mask {
		e := &s.slots[i]
		if e.gen != gen {
			*e = bucketSlot{key, int32(table), gen}
			return true
		}
		if e.key == key && e.table == int32(table) {
			return false
		}
	}
}

// Reset empties the set for every marker value.
func (s *BucketSet) Reset() { clear(s.slots) }
