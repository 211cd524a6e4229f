// Package lsh implements the p-stable Locality Sensitive Hashing index of
// Datar et al. (SoCG 2004) that ALID's CIVS step (Section 4.3) and the
// sparsified baselines (Section 5.1) are built on.
//
// Each of l tables hashes a point v with µ concatenated projections
//
//	h_t(v) = ⌊(a_t·v + b_t) / r⌋,   a_t ~ N(0,1)^d,  b_t ~ U[0,r),
//
// and the µ-tuple is folded into a single 64-bit bucket key. The segment
// length r is the sparsity knob swept in the Fig. 6 experiments. The index
// keeps an inverted list (point → bucket key per table) so that querying by
// data-item index never rehashes, matching the paper's "check the inverted
// list ... and do not store the hash keys" design.
//
// Construction operates on the segmented matrix.Matrix layout and runs the
// O(n·d·µ·l) hashing pass on GOMAXPROCS workers through internal/par. Hash
// parameters are still drawn from a single deterministic stream (that part is
// O(l·µ·d) — negligible) and bucket insertion happens in ascending point-id
// order per table, so the built index is bit-identical regardless of
// parallelism: same tables, same bucket membership order, same results.
//
// # Structural sharing (share-and-seal)
//
// Each table stores its buckets as a list of sealed, immutable bucket
// segments plus one small mutable tail. Append touches only the tail;
// Publish seals the tail into the segment list and returns an immutable
// snapshot that shares every sealed segment with the live index, so taking
// a snapshot costs O(segments + tail keys) instead of the O(n·l) deep Clone
// the streaming layer paid before. Reads merge the segments in order; since
// segments hold ascending, disjoint id ranges, the merged member sequence of
// any bucket is exactly the ascending-id order of a flat build — segmented
// and flat indexes answer every query bit-identically (gated by
// segcross_test.go). Sealed segments are compacted geometrically (an LSM-
// style merge of the two newest segments while the older is at most twice
// the newer), keeping the per-table segment count logarithmic in the number
// of publishes at O(log) amortized merge cost per appended point.
//
// # Eviction (tombstones)
//
// Evict tombstones ids in an index-level dead bitmap (copy-on-write at
// chunk granularity, so published snapshots keep their own liveness); every
// read path skips dead ids, which keeps answers bit-identical to an index
// built over only the survivors (gated by evictcross_test.go). Sealed
// segments are never rewritten by eviction — dead ids are physically
// dropped only when compaction merges their segment (and a table whose
// resident dead outnumber the live ids is fully compacted on the next
// Publish), and a fully-dead inverted-list chunk releases its key storage.
// Steady-state memory under ingest+evict is therefore bounded by the live
// set, not by the points ever indexed.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"alid/internal/index"
	"alid/internal/matrix"
	"alid/internal/par"
	"alid/internal/vec"
)

// Index implements the backend-neutral candidate-index seam.
var _ index.Index = (*Index)(nil)

// Config holds the LSH parameters. The paper's Fig. 6 setup is 40 projections
// per hash value and 50 hash tables; those are expensive defaults meant for
// small n, so DefaultConfig uses a lighter setting and the experiment harness
// overrides it per figure.
type Config struct {
	// Projections is µ, the number of concatenated hash functions per table.
	Projections int
	// Tables is l, the number of hash tables.
	Tables int
	// R is the segment length r of the p-stable hash.
	R float64
	// Seed makes index construction deterministic.
	Seed int64
}

// DefaultConfig returns a moderate setting usable across the synthetic
// datasets: µ=12, l=8.
func DefaultConfig() Config { return Config{Projections: 12, Tables: 8, R: 1.0, Seed: 1} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Projections <= 0 {
		return fmt.Errorf("lsh: Projections must be positive, got %d", c.Projections)
	}
	if c.Tables <= 0 {
		return fmt.Errorf("lsh: Tables must be positive, got %d", c.Tables)
	}
	if !(c.R > 0) {
		return fmt.Errorf("lsh: segment length R must be positive, got %v", c.R)
	}
	return nil
}

const (
	// KeyChunkShift is log2(KeyChunk).
	KeyChunkShift = 12
	// KeyChunk is the fixed capacity of one inverted-list chunk. Every chunk
	// except the tail holds exactly this many keys (canonical chunking, the
	// same rule matrix.Matrix follows), so the snapshot codec can round-trip
	// chunks verbatim.
	KeyChunk     = 1 << KeyChunkShift
	keyChunkMask = KeyChunk - 1
	// deadWords is the uint64 word count of one dead-bitmap chunk (one bit
	// per id over a KeyChunk-sized id range).
	deadWords = KeyChunk / 64
)

// keyvec is an append-only chunked uint64 vector with structural sharing:
// sealed (full) chunks are immutable and shared between snapshots, only the
// partially filled tail chunk is copied on snapshot.
type keyvec struct {
	chunks [][]uint64
	n      int
}

// newKeyvec preallocates a vector of n keys (all chunks at final length) so
// parallel builders can write disjoint index ranges with set.
func newKeyvec(n int) *keyvec {
	v := &keyvec{n: n}
	for left := n; left > 0; left -= KeyChunk {
		v.chunks = append(v.chunks, make([]uint64, min(left, KeyChunk), KeyChunk))
	}
	return v
}

func (v *keyvec) at(i int) uint64     { return v.chunks[i>>KeyChunkShift][i&keyChunkMask] }
func (v *keyvec) set(i int, k uint64) { v.chunks[i>>KeyChunkShift][i&keyChunkMask] = k }

// append adds one key, opening a fresh chunk when the tail is full or was
// released (a released chunk is full of dead ids and never written again).
func (v *keyvec) append(k uint64) {
	if c := len(v.chunks); c == 0 || v.chunks[c-1] == nil || len(v.chunks[c-1]) == KeyChunk {
		v.chunks = append(v.chunks, make([]uint64, 0, KeyChunk))
	}
	c := len(v.chunks) - 1
	v.chunks[c] = append(v.chunks[c], k)
	v.n++
}

// snapshot shares sealed chunks and copies only the partial tail, so appends
// to the receiver never disturb the snapshot (and vice versa).
func (v *keyvec) snapshot() *keyvec {
	s := &keyvec{chunks: append([][]uint64(nil), v.chunks...), n: v.n}
	if c := len(s.chunks) - 1; c >= 0 && s.chunks[c] != nil && len(s.chunks[c]) < KeyChunk {
		s.chunks[c] = append(make([]uint64, 0, len(s.chunks[c])), s.chunks[c]...)
	}
	return s
}

// fromKeyChunks adopts canonically chunked keys without copying.
func fromKeyChunks(chunks [][]uint64) (*keyvec, error) {
	n := 0
	for c, ch := range chunks {
		if c < len(chunks)-1 && len(ch) != KeyChunk {
			return nil, fmt.Errorf("lsh: key chunk %d has %d keys, want %d", c, len(ch), KeyChunk)
		}
		if len(ch) == 0 || len(ch) > KeyChunk {
			return nil, fmt.Errorf("lsh: key chunk %d has %d keys", c, len(ch))
		}
		n += len(ch)
	}
	return &keyvec{chunks: chunks, n: n}, nil
}

// segment is one sealed (or, for the tail, still-mutable) portion of a
// table's buckets, covering a contiguous ascending range of point ids.
// Sealed segments are immutable and shared by every snapshot taken after the
// seal.
type segment struct {
	buckets map[uint64][]int32
	// size is the number of points hashed into this segment (merge policy).
	size int
}

type table struct {
	// projections, row-major: Projections × dim
	proj []float64
	// offsets b_t ∈ [0, R)
	off []float64
	// keys[i] is the bucket key of point i (the chunked inverted list).
	// A nil chunk is released storage: every id in its range is dead.
	keys *keyvec
	// segs are the sealed bucket segments in ascending id-range order.
	segs []*segment
	// tail is the mutable segment Append writes into; nil when empty.
	tail *segment
	// deadResident counts dead ids still physically present in this table's
	// segments and tail (reads skip them via the bitmap; merges drop them).
	// When it exceeds the live id count, Publish fully compacts the table.
	deadResident int
}

// Index is an LSH index over a dataset. Reads (QueryInto, CandidatesByID,
// …) are safe for unlimited concurrency; Append, Publish and Evict are
// writer-side and must be serialized by the caller (the streaming layer's
// single writer). Published snapshots are immutable and share sealed state
// with the live index.
type Index struct {
	cfg    Config
	dim    int
	n      int
	tables []table

	// dead[c], when non-nil, is the tombstone bitmap of ids
	// [c·KeyChunk, (c+1)·KeyChunk) — bit set = id evicted. The outer slice is
	// nil until the first Evict and chunks are allocated lazily, so an index
	// that never evicts pays one nil check per candidate.
	dead [][]uint64
	// deadShared[c] marks dead[c] as possibly referenced by a published
	// snapshot: the next bit set must copy the words first.
	deadShared []bool
	// deadPerChunk[c] counts dead ids in chunk c's range; at KeyChunk the
	// inverted-list chunk is released in every table.
	deadPerChunk []int32
	// deadTotal is the total tombstone count; n-deadTotal ids are live.
	deadTotal int
	// compactions counts segment merges performed over the index's lifetime
	// (geometric schedule plus full compactions). Writer-side like every
	// mutation: read it from the owning goroutine, or from an immutable
	// published snapshot (Publish copies the count at publish time).
	compactions int64
}

// Compactions returns the cumulative segment-merge count (diagnostics).
// Safe only from the writer goroutine or on an immutable snapshot.
func (i *Index) Compactions() int64 { return i.compactions }

// Backend names the p-stable dense-vector backend.
func (i *Index) Backend() string { return index.BackendLSH }

// SigLen is the signature scratch length QueryInto and BucketKeys require:
// µ, the concatenated hash values per table.
func (i *Index) SigLen() int { return i.cfg.Projections }

// Tables is the hash-table count (the BucketKeys scratch length).
func (i *Index) Tables() int { return len(i.tables) }

// PublishIndex is Publish behind the backend-neutral seam (Go has no
// covariant returns, so the interface form returns index.Index).
func (i *Index) PublishIndex() index.Index { return i.Publish() }

// alive reports whether id has not been evicted.
func (i *Index) alive(id int32) bool {
	if i.dead == nil {
		return true
	}
	w := i.dead[id>>KeyChunkShift]
	if w == nil {
		return true
	}
	r := id & keyChunkMask
	return w[r>>6]&(1<<(uint(r)&63)) == 0
}

// Live returns the number of ids that have not been evicted.
func (i *Index) Live() int { return i.n - i.deadTotal }

// Evict tombstones the given ids: every read path skips them from now on,
// exactly as if the index had been built over the survivors only. Sealed
// bucket segments are not rewritten — dead ids are physically dropped by
// the next compaction that touches their segment — but a fully-dead
// inverted-list chunk releases its key storage in every table immediately.
// Ids already dead are skipped; out-of-range ids panic (callers validate at
// their boundary). Writer-side only. Returns the newly evicted count.
func (i *Index) Evict(ids []int) int {
	if len(ids) == 0 {
		return 0
	}
	if i.dead == nil {
		chunks := (i.n + KeyChunk - 1) / KeyChunk
		i.dead = make([][]uint64, chunks)
		i.deadShared = make([]bool, chunks)
		i.deadPerChunk = make([]int32, chunks)
	}
	evicted := 0
	for _, id := range ids {
		if id < 0 || id >= i.n {
			panic(fmt.Sprintf("lsh: evict id %d out of range [0,%d)", id, i.n))
		}
		c := id >> KeyChunkShift
		r := id & keyChunkMask
		bit := uint64(1) << (uint(r) & 63)
		if i.dead[c] != nil && i.dead[c][r>>6]&bit != 0 {
			continue // already dead
		}
		if i.dead[c] == nil {
			i.dead[c] = make([]uint64, deadWords)
			i.deadShared[c] = false
		} else if i.deadShared[c] {
			i.dead[c] = append([]uint64(nil), i.dead[c]...)
			i.deadShared[c] = false
		}
		i.dead[c][r>>6] |= bit
		i.deadPerChunk[c]++
		i.deadTotal++
		evicted++
		if i.deadPerChunk[c] == KeyChunk {
			// The whole id range is dead: release the key chunk in every
			// table (snapshots hold their own chunk references).
			for t := range i.tables {
				i.tables[t].keys.chunks[c] = nil
			}
		}
	}
	for t := range i.tables {
		i.tables[t].deadResident += evicted
	}
	return evicted
}

// Build flattens the points and hashes them into cfg.Tables tables.
func Build(pts [][]float64, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("lsh: empty dataset")
	}
	m, err := matrix.FromRows(pts)
	if err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	return BuildMatrix(m, cfg)
}

// BuildMatrix hashes all rows of m into cfg.Tables tables: O(n·d·µ·l) time,
// parallelized across points and tables. The built buckets form each table's
// single sealed base segment.
func BuildMatrix(m *matrix.Matrix, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil || m.N == 0 {
		return nil, fmt.Errorf("lsh: empty dataset")
	}
	dim := m.D
	idx := &Index{cfg: cfg, dim: dim, n: m.N, tables: make([]table, cfg.Tables)}
	// Draw every table's projections and offsets from one sequential stream:
	// this costs O(l·µ·d) — noise next to the hashing pass — and keeps the
	// hash functions identical whatever the worker count.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := range idx.tables {
		tb := &idx.tables[t]
		tb.proj = make([]float64, cfg.Projections*dim)
		for i := range tb.proj {
			tb.proj[i] = rng.NormFloat64()
		}
		tb.off = make([]float64, cfg.Projections)
		for i := range tb.off {
			tb.off[i] = rng.Float64() * cfg.R
		}
		tb.keys = newKeyvec(m.N)
	}

	// Phase 1: compute every point's bucket key, parallel over (table, block)
	// jobs. Each job writes a disjoint range of one table's key chunks. The
	// per-worker signature scratch is allocated by its own worker, so no two
	// workers write to one cache line.
	const block = 256
	blocksPerTable := (m.N + block - 1) / block
	pool := par.New(-1)
	sigs := make([][]int64, pool.Workers())
	pool.Each(cfg.Tables*blocksPerTable, func(w, job int) {
		if sigs[w] == nil {
			sigs[w] = make([]int64, cfg.Projections)
		}
		sig := sigs[w]
		tb := &idx.tables[job/blocksPerTable]
		lo := (job % blocksPerTable) * block
		for i := lo; i < min(lo+block, m.N); i++ {
			tb.signature(m.Row(i), cfg.R, sig)
			tb.keys.set(i, fold(sig))
		}
	})

	// Phase 2: bucket fill per table, points in ascending id order so bucket
	// membership order (and everything downstream: candidate order, PALID
	// seed sampling) is deterministic. Tables are independent. The map hint
	// is capped: clustered data hashes to far fewer distinct keys than n, so
	// an unconditional O(n) hint per table would waste memory at scale,
	// while no hint at all pays repeated rehash growth during the fill.
	bucketHint := min(m.N, 1<<16)
	pool.Each(cfg.Tables, func(_, t int) {
		tb := &idx.tables[t]
		base := &segment{buckets: make(map[uint64][]int32, bucketHint), size: m.N}
		for i := 0; i < m.N; i++ {
			key := tb.keys.at(i)
			base.buckets[key] = append(base.buckets[key], int32(i))
		}
		tb.segs = []*segment{base}
	})
	return idx, nil
}

// signature computes the µ concatenated hash values of v, two projection
// rows per vec.Dot2 step so each block of v loads is shared — signature
// evaluation is the O(n·d·µ·l) build cost and dominates index construction.
// (The per-lane ⌊·/r⌋ divisions look expensive but are NOT on the critical
// path: out-of-order execution hides the unpipelined DIVSD under the next
// lanes' dot products. A guarded reciprocal-multiply variant was measured
// ~20% SLOWER end-to-end — its extra round/abs/compare uops congest the
// issue-limited loop — so the plain division stays.)
func (tb *table) signature(v []float64, r float64, sig []int64) {
	dim := len(v)
	h := 0
	for ; h+2 <= len(sig); h += 2 {
		ra := tb.proj[h*dim : h*dim+dim]
		rb := tb.proj[(h+1)*dim : (h+1)*dim+dim]
		// vec.Dot2's body, inlined: signature runs once per table per query
		// on the serving path and once per row per table at build, so the
		// call, length checks and slice-header traffic are measurable. The
		// accumulation order is Dot2's exactly — signatures (and therefore
		// bucket keys) are bit-identical to the called form.
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		i := 0
		for ; i+4 <= dim; i += 4 {
			x0, x1, x2, x3 := v[i], v[i+1], v[i+2], v[i+3]
			a0 += ra[i] * x0
			a1 += ra[i+1] * x1
			a2 += ra[i+2] * x2
			a3 += ra[i+3] * x3
			b0 += rb[i] * x0
			b1 += rb[i+1] * x1
			b2 += rb[i+2] * x2
			b3 += rb[i+3] * x3
		}
		for ; i < dim; i++ {
			a0 += ra[i] * v[i]
			b0 += rb[i] * v[i]
		}
		dotA := (a0 + a1) + (a2 + a3)
		dotB := (b0 + b1) + (b2 + b3)
		sig[h] = int64(math.Floor((dotA + tb.off[h]) / r))
		sig[h+1] = int64(math.Floor((dotB + tb.off[h+1]) / r))
	}
	for ; h < len(sig); h++ {
		row := tb.proj[h*dim : h*dim+dim]
		sig[h] = int64(math.Floor((vec.Dot(row, v) + tb.off[h]) / r))
	}
}

// fold hashes a signature tuple into a 64-bit bucket key: each lane is
// avalanche-mixed as a whole word and chained multiplicatively. (The seed
// folded FNV-1a byte-by-byte — 8 iterations per lane — which showed up as
// ~20% of index construction; the key only needs to separate distinct
// signature tuples, which word-wise mixing does equally well.)
func fold(sig []int64) uint64 {
	var h uint64 = 14695981039346656037
	for _, s := range sig {
		x := uint64(s) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		h = (h ^ x) * 1099511628211
	}
	return h
}

// N returns the number of indexed points.
func (i *Index) N() int { return i.n }

// Dim returns the dimensionality the index hashes.
func (i *Index) Dim() int { return i.dim }

// Append hashes additional points into the existing tables, assigning them
// the next ids (N(), N()+1, ...). It returns the id of the first appended
// point. Only each table's mutable tail segment and the tail chunk of its
// inverted list are touched: sealed segments shared with published
// snapshots are never written. Append is NOT safe for concurrent use; the
// streaming extension serializes batch commits around it.
func (i *Index) Append(pts [][]float64) (int, error) {
	first := i.n
	sig := make([]int64, i.cfg.Projections)
	for off, p := range pts {
		if len(p) != i.dim {
			return first, fmt.Errorf("lsh: appended point %d has dimension %d, want %d", off, len(p), i.dim)
		}
	}
	for t := range i.tables {
		tb := &i.tables[t]
		if tb.tail == nil {
			tb.tail = &segment{buckets: make(map[uint64][]int32, len(pts))}
		}
		for off, p := range pts {
			tb.signature(p, i.cfg.R, sig)
			key := fold(sig)
			tb.keys.append(key)
			tb.tail.buckets[key] = append(tb.tail.buckets[key], int32(first+off))
		}
		tb.tail.size += len(pts)
	}
	i.n += len(pts)
	if i.dead != nil {
		for chunks := (i.n + KeyChunk - 1) / KeyChunk; len(i.dead) < chunks; {
			i.dead = append(i.dead, nil)
			i.deadShared = append(i.deadShared, false)
			i.deadPerChunk = append(i.deadPerChunk, 0)
		}
	}
	return first, nil
}

// Publish seals every table's mutable tail into its sealed-segment list,
// compacts the newest segments geometrically, and returns an immutable
// snapshot sharing all sealed state with the live index. The snapshot costs
// O(segments + tail inverted-list chunk) per table — independent of n — and
// stays bit-identical to the live index at publish time forever: subsequent
// Appends to the receiver only create fresh tails and fresh chunks. This is
// the share-and-seal replacement for the pre-segmentation deep Clone.
func (i *Index) Publish() *Index {
	snap := &Index{cfg: i.cfg, dim: i.dim, n: i.n, tables: make([]table, len(i.tables))}
	for t := range i.tables {
		tb := &i.tables[t]
		if tb.tail != nil {
			tb.segs = append(tb.segs, tb.tail)
			tb.tail = nil
			i.compactTable(tb)
		}
		// Physical reclaim backstop: once more dead ids sit in this table's
		// segments than there are live ids at all, the geometric schedule is
		// too slow — merge everything, dropping every resident tombstone, so
		// segment storage stays O(live) under continuous ingest+eviction.
		if tb.deadResident > i.Live() && len(tb.segs) > 0 {
			i.fullCompactTable(tb)
		}
		snap.tables[t] = table{
			proj:         tb.proj,
			off:          tb.off,
			keys:         tb.keys.snapshot(),
			segs:         append([]*segment(nil), tb.segs...),
			deadResident: tb.deadResident,
		}
	}
	if i.dead != nil {
		// Share the tombstone bitmap copy-on-write: both sides keep the same
		// chunks and mark them shared, so the next Evict on the live side
		// copies the touched chunk before setting bits.
		for c := range i.deadShared {
			i.deadShared[c] = true
		}
		snap.dead = append([][]uint64(nil), i.dead...)
		snap.deadShared = make([]bool, len(i.dead))
		for c := range snap.deadShared {
			snap.deadShared[c] = true
		}
		snap.deadPerChunk = append([]int32(nil), i.deadPerChunk...)
		snap.deadTotal = i.deadTotal
	}
	// Snapshot the compaction count last: the per-table loop above may have
	// just compacted.
	snap.compactions = i.compactions
	return snap
}

// mergeBuckets merges two segments into a fresh one, dropping dead ids (the
// inputs may be shared with published snapshots and are never mutated).
// Ascending id order is preserved: the older segment's members (smaller
// ids) come first in every merged bucket. size counts the surviving
// members; the number of tombstones dropped is returned.
func (i *Index) mergeBuckets(a, b *segment) (*segment, int) {
	m := &segment{buckets: make(map[uint64][]int32, len(a.buckets)+len(b.buckets))}
	appendLive := func(dst, src []int32) []int32 {
		for _, id := range src {
			if i.alive(id) {
				dst = append(dst, id)
			}
		}
		return dst
	}
	for key, am := range a.buckets {
		bm := b.buckets[key]
		merged := appendLive(make([]int32, 0, len(am)+len(bm)), am)
		merged = appendLive(merged, bm)
		if len(merged) > 0 {
			m.buckets[key] = merged
		}
		m.size += len(merged)
	}
	for key, bm := range b.buckets {
		if _, ok := a.buckets[key]; !ok {
			merged := appendLive(make([]int32, 0, len(bm)), bm)
			if len(merged) > 0 {
				m.buckets[key] = merged
			}
			m.size += len(merged)
		}
	}
	return m, a.size + b.size - m.size
}

// compactTable merges the two newest sealed segments while the older one is
// at most twice the newer (LSM-style geometric schedule): segment count
// stays O(log publishes) so merged reads stay cheap, at O(log) amortized
// merge cost per appended point. Merges physically drop tombstoned ids, so
// size means surviving members from here on.
func (i *Index) compactTable(tb *table) {
	for k := len(tb.segs); k >= 2 && tb.segs[k-2].size <= 2*tb.segs[k-1].size; k = len(tb.segs) {
		m, dropped := i.mergeBuckets(tb.segs[k-2], tb.segs[k-1])
		tb.deadResident -= dropped
		tb.segs = append(tb.segs[:k-2], m)
		i.compactions++
	}
}

// fullCompactTable merges every segment into one, dropping all resident
// tombstones.
func (i *Index) fullCompactTable(tb *table) {
	for len(tb.segs) >= 2 {
		k := len(tb.segs)
		m, dropped := i.mergeBuckets(tb.segs[k-2], tb.segs[k-1])
		tb.deadResident -= dropped
		tb.segs = append(tb.segs[:k-2], m)
		i.compactions++
	}
	if len(tb.segs) == 1 && tb.deadResident > 0 {
		// A single segment can still hold tombstones (the common restored /
		// freshly built shape): rebuild it without them.
		m, dropped := i.mergeBuckets(tb.segs[0], &segment{})
		tb.deadResident -= dropped
		tb.segs[0] = m
	}
}

// QueryInto is the allocation-free read path behind Query: it appends the
// ids of all points sharing a bucket with v in any table to dst, using the
// caller's scratch — sig (length Projections) for the hash signature and
// mark/gen (length N, marker-value deduplication as in CandidatesByIDsInto).
// It never mutates the index, so any number of goroutines may query one
// index concurrently as long as each brings its own scratch; this is the
// serving engine's per-request candidate-retrieval hook. Candidate order is
// deterministic and identical to a flat build: tables in order, bucket
// members in ascending id order (segments cover ascending id ranges).
func (i *Index) QueryInto(v []float64, sig []int64, dst []int32, mark []uint32, gen uint32) []int32 {
	if len(v) != i.dim {
		panic(fmt.Sprintf("lsh: query dimension %d, want %d", len(v), i.dim))
	}
	if len(sig) != i.cfg.Projections {
		panic(fmt.Sprintf("lsh: signature scratch length %d, want %d", len(sig), i.cfg.Projections))
	}
	for t := range i.tables {
		tb := &i.tables[t]
		tb.signature(v, i.cfg.R, sig)
		key := fold(sig)
		for _, seg := range tb.segs {
			for _, id := range seg.buckets[key] {
				if mark[id] == gen || !i.alive(id) {
					continue
				}
				mark[id] = gen
				dst = append(dst, id)
			}
		}
		if tb.tail != nil {
			for _, id := range tb.tail.buckets[key] {
				if mark[id] == gen || !i.alive(id) {
					continue
				}
				mark[id] = gen
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// BucketKeys fills keys[t] with v's bucket key in table t, without touching
// any bucket. sig is caller scratch of length Projections; keys must have
// length Tables. The batched serving path hashes each query once and then
// resolves candidate clusters from its per-generation bucket→cluster summary
// (built via VisitLiveBuckets) instead of enumerating bucket members.
func (i *Index) BucketKeys(v []float64, sig []int64, keys []uint64) {
	if len(v) != i.dim {
		panic(fmt.Sprintf("lsh: query dimension %d, want %d", len(v), i.dim))
	}
	if len(sig) != i.cfg.Projections {
		panic(fmt.Sprintf("lsh: signature scratch length %d, want %d", len(sig), i.cfg.Projections))
	}
	if len(keys) != len(i.tables) {
		panic(fmt.Sprintf("lsh: key scratch length %d, want %d tables", len(keys), len(i.tables)))
	}
	for t := range i.tables {
		tb := &i.tables[t]
		tb.signature(v, i.cfg.R, sig)
		keys[t] = fold(sig)
	}
}

// VisitLiveBuckets calls f once per (table, non-empty bucket) with the
// bucket's live member ids in ascending id order — exactly the id sequence a
// query hashing to that bucket enumerates (segments cover ascending disjoint
// id ranges, and tombstoned ids are skipped). The ids slice may alias index
// storage or a shared scratch: it is read-only and valid only for the
// duration of the call. Visit order within a table is unspecified.
func (i *Index) VisitLiveBuckets(f func(table int, key uint64, ids []int32)) {
	var merged []int32
	for t := range i.tables {
		segs := i.tables[t].allSegments()
		if len(segs) == 0 {
			continue
		}
		if len(segs) == 1 && i.deadTotal == 0 {
			// Common (freshly built / restored) case: hand out the single
			// segment's bucket slices directly.
			for k, members := range segs[0].buckets {
				if len(members) > 0 {
					f(t, k, members)
				}
			}
			continue
		}
		keys := make(map[uint64]struct{}, len(segs[0].buckets))
		for _, seg := range segs {
			for k := range seg.buckets {
				keys[k] = struct{}{}
			}
		}
		for k := range keys {
			merged = merged[:0]
			for _, seg := range segs {
				for _, id := range seg.buckets[k] {
					if i.alive(id) {
						merged = append(merged, id)
					}
				}
			}
			if len(merged) > 0 {
				f(t, k, merged)
			}
		}
	}
}

// TableDump is the flat serializable state of one hash table (the legacy v1
// snapshot layout; the v2 codec uses DumpChunks). Buckets are not dumped:
// they are a deterministic function of Keys (bucket fill inserts points in
// ascending id order), so restore rebuilds them bit-identically.
type TableDump struct {
	// Proj is the row-major Projections×dim projection matrix a_t.
	Proj []float64
	// Off holds the Projections offsets b_t.
	Off []float64
	// Keys is the inverted list: Keys[i] is point i's bucket key.
	Keys []uint64
}

// TableChunks is the chunked serializable state of one hash table: the
// inverted list in canonical KeyChunk-sized chunks, exactly as stored. The
// v2 snapshot codec streams these without materializing a flat copy, and
// restore adopts them without re-chunking.
type TableChunks struct {
	// Proj is the row-major Projections×dim projection matrix a_t.
	Proj []float64
	// Off holds the Projections offsets b_t.
	Off []float64
	// KeyChunks is the chunked inverted list (canonical chunking).
	KeyChunks [][]uint64
}

// DumpChunks exports the index state in chunked form. All slices alias index
// storage and must be treated as read-only.
func (i *Index) DumpChunks() (Config, int, []TableChunks) {
	out := make([]TableChunks, len(i.tables))
	for t := range i.tables {
		tb := &i.tables[t]
		out[t] = TableChunks{Proj: tb.proj, Off: tb.off, KeyChunks: tb.keys.chunks}
	}
	return i.cfg, i.dim, out
}

// NewEmptyWithHashes constructs an empty index (N = 0) over caller-supplied
// hash functions: proj[t] is table t's row-major Projections×dim projection
// matrix and off[t] its Projections offsets, replacing the Gaussian draw of
// BuildMatrix. This is the hook set-oriented backends use to inject
// coordinate-selecting hash functions (internal/minhash's banded keys are
// basis-vector projections with a rounding offset) while reusing the whole
// share-and-seal bucket store — segments, tombstones, compaction and the
// snapshot dump formats — unchanged. Populate with Append.
func NewEmptyWithHashes(cfg Config, dim int, proj, off [][]float64) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dimension %d", dim)
	}
	if len(proj) != cfg.Tables || len(off) != cfg.Tables {
		return nil, fmt.Errorf("lsh: %d projection sets and %d offset sets for %d tables", len(proj), len(off), cfg.Tables)
	}
	idx := &Index{cfg: cfg, dim: dim, tables: make([]table, cfg.Tables)}
	for t := range idx.tables {
		if err := validateTable(cfg, dim, t, proj[t], off[t]); err != nil {
			return nil, err
		}
		idx.tables[t] = table{proj: proj[t], off: off[t], keys: newKeyvec(0)}
	}
	return idx, nil
}

// validateTable checks one restored table's hash parameters.
func validateTable(cfg Config, dim, t int, proj, off []float64) error {
	if len(proj) != cfg.Projections*dim {
		return fmt.Errorf("lsh: table %d has %d projection values, want %d", t, len(proj), cfg.Projections*dim)
	}
	if len(off) != cfg.Projections {
		return fmt.Errorf("lsh: table %d has %d offsets, want %d", t, len(off), cfg.Projections)
	}
	return nil
}

// rebuildBase fills one sealed base segment from a table's inverted list in
// ascending point-id order — the same order BuildMatrix and Append use — so
// a restored index answers every query identically to the dumped one.
func rebuildBase(tb *table, n int) {
	base := &segment{buckets: make(map[uint64][]int32, min(n, 1<<16)), size: n}
	for i := 0; i < n; i++ {
		key := tb.keys.at(i)
		base.buckets[key] = append(base.buckets[key], int32(i))
	}
	tb.segs = []*segment{base}
}

// FromDump reconstructs an index from flat dumped state (the legacy v1
// snapshot layout), re-chunking the inverted lists and rebuilding every
// bucket into a single sealed base segment.
func FromDump(cfg Config, dim int, tables []TableDump) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dump dimension %d", dim)
	}
	if len(tables) != cfg.Tables {
		return nil, fmt.Errorf("lsh: dump has %d tables, config says %d", len(tables), cfg.Tables)
	}
	n := -1
	idx := &Index{cfg: cfg, dim: dim, tables: make([]table, len(tables))}
	for t, td := range tables {
		if err := validateTable(cfg, dim, t, td.Proj, td.Off); err != nil {
			return nil, err
		}
		if n == -1 {
			n = len(td.Keys)
		} else if len(td.Keys) != n {
			return nil, fmt.Errorf("lsh: table %d has %d keys, table 0 has %d", t, len(td.Keys), n)
		}
		tb := &idx.tables[t]
		tb.proj = td.Proj
		tb.off = td.Off
		tb.keys = newKeyvec(len(td.Keys))
		for i, key := range td.Keys {
			tb.keys.set(i, key)
		}
		rebuildBase(tb, n)
	}
	if n <= 0 {
		return nil, fmt.Errorf("lsh: dump has no points")
	}
	idx.n = n
	return idx, nil
}

// FromDumpChunks reconstructs an index from chunked dumped state (the v2
// snapshot layout), adopting the key chunks without copying and rebuilding
// every bucket into a single sealed base segment. Runtime segmentation is
// not persisted — it only shapes future publish costs, never query answers.
func FromDumpChunks(cfg Config, dim int, tables []TableChunks) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dump dimension %d", dim)
	}
	if len(tables) != cfg.Tables {
		return nil, fmt.Errorf("lsh: dump has %d tables, config says %d", len(tables), cfg.Tables)
	}
	n := -1
	idx := &Index{cfg: cfg, dim: dim, tables: make([]table, len(tables))}
	for t, td := range tables {
		if err := validateTable(cfg, dim, t, td.Proj, td.Off); err != nil {
			return nil, err
		}
		kv, err := fromKeyChunks(td.KeyChunks)
		if err != nil {
			return nil, fmt.Errorf("lsh: table %d: %w", t, err)
		}
		if n == -1 {
			n = kv.n
		} else if kv.n != n {
			return nil, fmt.Errorf("lsh: table %d has %d keys, table 0 has %d", t, kv.n, n)
		}
		tb := &idx.tables[t]
		tb.proj = td.Proj
		tb.off = td.Off
		tb.keys = kv
		rebuildBase(tb, n)
	}
	if n <= 0 {
		return nil, fmt.Errorf("lsh: dump has no points")
	}
	idx.n = n
	return idx, nil
}

// FromDumpChunksLive reconstructs an index from chunked dumped state
// together with per-id liveness — the v3 snapshot layout. Inverted-list
// chunks may be empty: that marks released storage and is only legal when
// every id in the chunk's range is dead. Dead ids are physically dropped
// while rebuilding the base segments, so the restored index starts with no
// resident tombstones yet answers every query exactly as the evicted index
// that was dumped. n is the total id count, dead ids included (it cannot be
// derived from the chunks once some are released).
func FromDumpChunksLive(cfg Config, dim, n int, tables []TableChunks, live func(id int) bool) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dump dimension %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("lsh: dump has no points")
	}
	if len(tables) != cfg.Tables {
		return nil, fmt.Errorf("lsh: dump has %d tables, config says %d", len(tables), cfg.Tables)
	}
	nChunks := (n + KeyChunk - 1) / KeyChunk
	idx := &Index{cfg: cfg, dim: dim, n: n, tables: make([]table, len(tables))}
	for id := 0; id < n; id++ {
		if live(id) {
			continue
		}
		if idx.dead == nil {
			idx.dead = make([][]uint64, nChunks)
			idx.deadShared = make([]bool, nChunks)
			idx.deadPerChunk = make([]int32, nChunks)
		}
		c := id >> KeyChunkShift
		if idx.dead[c] == nil {
			idx.dead[c] = make([]uint64, deadWords)
		}
		r := id & keyChunkMask
		idx.dead[c][r>>6] |= 1 << (uint(r) & 63)
		idx.deadPerChunk[c]++
		idx.deadTotal++
	}
	for t, td := range tables {
		if err := validateTable(cfg, dim, t, td.Proj, td.Off); err != nil {
			return nil, err
		}
		if len(td.KeyChunks) != nChunks {
			return nil, fmt.Errorf("lsh: table %d has %d key chunks for %d points, want %d", t, len(td.KeyChunks), n, nChunks)
		}
		kv := &keyvec{chunks: td.KeyChunks, n: n}
		for c, kc := range td.KeyChunks {
			rows := KeyChunk
			if c == nChunks-1 {
				rows = n - c*KeyChunk
			}
			if len(kc) == 0 {
				// Released chunk: legal only when its whole range is dead.
				deadHere := 0
				if idx.deadPerChunk != nil {
					deadHere = int(idx.deadPerChunk[c])
				}
				if rows != KeyChunk || deadHere != KeyChunk {
					return nil, fmt.Errorf("lsh: table %d key chunk %d is empty but has %d/%d live ids", t, c, rows-deadHere, rows)
				}
				kv.chunks[c] = nil
				continue
			}
			if len(kc) != rows {
				return nil, fmt.Errorf("lsh: table %d key chunk %d has %d keys, want %d", t, c, len(kc), rows)
			}
		}
		tb := &idx.tables[t]
		tb.proj = td.Proj
		tb.off = td.Off
		tb.keys = kv
		// Base fill in ascending id order, dead ids dropped: the restored
		// index physically holds only survivors, in the exact order the
		// evicted index's merged reads produce.
		base := &segment{buckets: make(map[uint64][]int32, min(n, 1<<16))}
		for id := 0; id < n; id++ {
			if !idx.alive(int32(id)) {
				continue
			}
			key := kv.at(id)
			base.buckets[key] = append(base.buckets[key], int32(id))
			base.size++
		}
		tb.segs = []*segment{base}
	}
	return idx, nil
}

// CandidatesByID returns the live ids co-bucketed with point id in any
// table, excluding id itself, using the stored inverted list (no
// rehashing). id itself must be live — a dead id's key storage may already
// be released.
func (i *Index) CandidatesByID(id int) []int32 {
	seen := make(map[int32]struct{})
	var out []int32
	for t := range i.tables {
		tb := &i.tables[t]
		key := tb.keys.at(id)
		for _, seg := range tb.allSegments() {
			for _, j := range seg.buckets[key] {
				if int(j) == id || !i.alive(j) {
					continue
				}
				if _, ok := seen[j]; !ok {
					seen[j] = struct{}{}
					out = append(out, j)
				}
			}
		}
	}
	return out
}

// CandidatesByIDsInto appends the live ids co-bucketed with any of the
// query ids to dst, excluding the query ids, using mark (a caller scratch
// slice of length N) with marker value gen for deduplication and seen for
// the (table, bucket) pairs already walked; see index.Index. It is the
// allocation-free read CIVS makes once per outer iteration over the whole
// support: once dst and seen have grown to the largest read, it allocates
// nothing. The query ids must be live, and gen nonzero.
func (i *Index) CandidatesByIDsInto(ids []int, dst []int32, mark []uint32, gen uint32, seen *index.BucketSet) []int32 {
	if gen == 0 {
		panic("lsh: marker value 0 is reserved")
	}
	for _, id := range ids {
		mark[id] = gen
	}
	// One query hashes to one bucket per table, so only several can repeat
	// a (table, bucket) pair.
	multi := len(ids) > 1
	if multi {
		seen.Prepare(len(ids) * len(i.tables))
	}
	for _, id := range ids {
		for t := range i.tables {
			tb := &i.tables[t]
			key := tb.keys.at(id)
			if multi && !seen.Visit(t, key, gen) {
				continue
			}
			for _, seg := range tb.segs {
				dst = i.appendUnmarked(dst, seg.buckets[key], mark, gen)
			}
			if tb.tail != nil {
				dst = i.appendUnmarked(dst, tb.tail.buckets[key], mark, gen)
			}
		}
	}
	return dst
}

// appendUnmarked appends the live, unmarked ids of one bucket to dst and
// marks them.
func (i *Index) appendUnmarked(dst, bucket []int32, mark []uint32, gen uint32) []int32 {
	for _, j := range bucket {
		if mark[j] == gen || !i.alive(j) {
			continue
		}
		mark[j] = gen
		dst = append(dst, j)
	}
	return dst
}

// NeighborLists returns, for every point, its co-bucketed points capped at
// maxPerPoint (0 = unlimited). This is the sparsification path of Section 5.1
// used to feed the ENN/ANN-sparsified baselines.
func (i *Index) NeighborLists(maxPerPoint int) [][]int {
	out := make([][]int, i.n)
	for id := 0; id < i.n; id++ {
		c := i.CandidatesByID(id)
		if maxPerPoint > 0 && len(c) > maxPerPoint {
			c = c[:maxPerPoint]
		}
		lst := make([]int, len(c))
		for k, v := range c {
			lst[k] = int(v)
		}
		out[id] = lst
	}
	return out
}

// allSegments returns the table's segments in id-range order, including the
// mutable tail (reader-side merged view).
func (tb *table) allSegments() []*segment {
	if tb.tail == nil {
		return tb.segs
	}
	return append(append(make([]*segment, 0, len(tb.segs)+1), tb.segs...), tb.tail)
}

// Buckets returns every bucket (across all tables) with more than minSize
// members, in a deterministic order (by table, then bucket key). PALID
// samples its initial vertices from these (Section 4.6) and relies on the
// ordering for run-to-run reproducibility. Buckets split across segments are
// merged in ascending id order, so the result is identical to a flat build.
func (i *Index) Buckets(minSize int) [][]int32 {
	var out [][]int32
	for t := range i.tables {
		segs := i.tables[t].allSegments()
		if len(segs) == 1 && i.deadTotal == 0 {
			// Common (freshly built / restored) case: alias the single
			// segment's bucket slices directly.
			b := segs[0].buckets
			keys := make([]uint64, 0, len(b))
			for k, members := range b {
				if len(members) > minSize {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				out = append(out, b[k])
			}
			continue
		}
		total := make(map[uint64]int)
		for _, seg := range segs {
			for k, members := range seg.buckets {
				for _, id := range members {
					if i.alive(id) {
						total[k]++
					}
				}
			}
		}
		keys := make([]uint64, 0, len(total))
		for k, sz := range total {
			if sz > minSize {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			merged := make([]int32, 0, total[k])
			for _, seg := range segs {
				for _, id := range seg.buckets[k] {
					if i.alive(id) {
						merged = append(merged, id)
					}
				}
			}
			out = append(out, merged)
		}
	}
	return out
}

// Stats is the backend-neutral index statistics type (aliased so every
// backend's Stats method satisfies the index.Index seam with one type).
type Stats = index.Stats

// Stats computes bucket statistics across all tables, merging buckets that
// span segments and skipping tombstoned ids so the numbers match a build
// over the survivors.
func (i *Index) Stats() Stats {
	s := Stats{Tables: len(i.tables)}
	total := 0
	for t := range i.tables {
		segs := i.tables[t].allSegments()
		s.Segments += len(segs)
		if len(segs) == 1 && i.deadTotal == 0 {
			for _, members := range segs[0].buckets {
				s.Buckets++
				total += len(members)
				if len(members) > s.MaxBucketSize {
					s.MaxBucketSize = len(members)
				}
			}
			continue
		}
		sizes := make(map[uint64]int)
		for _, seg := range segs {
			for k, members := range seg.buckets {
				live := 0
				for _, id := range members {
					if i.alive(id) {
						live++
					}
				}
				if live > 0 {
					sizes[k] += live
				}
			}
		}
		for _, sz := range sizes {
			s.Buckets++
			total += sz
			if sz > s.MaxBucketSize {
				s.MaxBucketSize = sz
			}
		}
	}
	if s.Buckets > 0 {
		s.MeanBucketSize = float64(total) / float64(s.Buckets)
	}
	return s
}
