// Package matrix provides the segmented row-major dataset representation
// every hot path in this repository operates on.
//
// The seed implementation passed [][]float64 everywhere, paying a pointer
// dereference (and usually a cache miss) per point touched; PR 1 replaced it
// with one flat n·d slice. This revision keeps rows contiguous but stores
// them in fixed-capacity chunks of ChunkRows rows each, with a per-chunk
// cache of squared L2 norms, so Euclidean distances are still evaluated with
// a single fused dot product via the identity
//
//	‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b,
//
// while a published snapshot of the matrix is structurally shared: sealed
// (full) chunks are immutable and referenced by every snapshot that contains
// them, and only the partially filled tail chunk is ever copied. Snapshot
// therefore costs O(ChunkRows·d + n/ChunkRows) — independent of n up to the
// chunk-pointer copy — where the pre-segmentation Clone cost O(n·d).
//
// Invariants:
//
//   - points are flattened ONCE at the public API boundary (alid.NewDetector
//     and friends); all internal layers take a *Matrix and never
//     re-materialize [][]float64 on a hot path (established by PR 1);
//   - every chunk except the last holds exactly ChunkRows rows (canonical
//     chunking — snapshot codec v2 round-trips chunks verbatim because the
//     boundaries are a deterministic function of N);
//   - chunks of a snapshot are never written again: AppendRows fills the
//     live matrix's own tail copy and allocates fresh chunks beyond it
//     (the share-and-seal protocol);
//   - eviction never rewrites row data: a tombstoned row keeps its index and
//     its bytes, and liveness lives in a separate per-chunk bitmap that goes
//     copy-on-write at chunk granularity when a snapshot shares it. The only
//     physical reclaim is whole-chunk release — once every row of a sealed
//     (full) chunk is dead, the live matrix drops its reference to the chunk
//     (snapshots keep theirs), so a bounded live set keeps bounded row
//     storage however many points were ever appended.
package matrix

import (
	"fmt"
	"math"
	"math/bits"

	"alid/internal/vec"
)

const (
	// ChunkShift is log2(ChunkRows).
	ChunkShift = 10
	// ChunkRows is the fixed chunk capacity in rows. Every chunk except the
	// tail holds exactly this many rows.
	ChunkRows = 1 << ChunkShift
	chunkMask = ChunkRows - 1
	// LiveWords is the number of uint64 words in one chunk's live bitmap
	// (one bit per row). Bitmap chunks always hold exactly LiveWords words;
	// bits beyond the rows actually present in a tail chunk are 1, so
	// appending never has to touch the bitmap.
	LiveWords = ChunkRows / 64
)

// Matrix is an n×d row-major dataset stored in fixed-capacity row chunks
// with cached per-row squared L2 norms. Rows are exposed for read-only
// iteration by hot loops; mutate rows only through methods that keep the
// norm cache consistent. A Matrix holding only D is empty and takes rows
// through AppendRows.
type Matrix struct {
	// chunks[c] holds rows [c·ChunkRows, …) contiguously; its length is
	// rowsInChunk·D and its capacity ChunkRows·D. A nil entry is a released
	// chunk: every row in it was evicted, its storage was reclaimed, and only
	// snapshots taken before the release still reference the row data.
	chunks [][]float64
	// norms[c][r] = ‖row c·ChunkRows+r‖², parallel to chunks (nil when the
	// data chunk was released).
	norms [][]float64
	// live[c] is chunk c's liveness bitmap (LiveWords words, bit r = row
	// c·ChunkRows+r is not tombstoned). nil until the first Evict — a matrix
	// that never evicted carries no bitmap and Live is unconditionally true.
	live [][]uint64
	// liveShared[c] marks live[c] as possibly referenced by a snapshot: the
	// next bit clear must copy the words first (copy-on-write, the same
	// discipline stream.Labels uses).
	liveShared []bool
	// deadPerChunk[c] counts tombstoned rows in chunk c; a full chunk whose
	// count reaches ChunkRows is released.
	deadPerChunk []int32
	// dead is the total tombstone count; N-dead rows are live.
	dead int
	// N is the number of rows (points) ever appended, dead ones included —
	// row indices are stable across evictions.
	N int
	// D is the dimensionality.
	D int
}

// appendRow adds one row of width D with a precomputed squared norm,
// extending the tail chunk or opening a fresh one when the tail is full (or
// was released — a released chunk is by construction full of dead rows and
// is never written again).
func (m *Matrix) appendRow(r []float64, normSq float64) {
	if k := len(m.chunks); k == 0 || m.chunks[k-1] == nil || len(m.chunks[k-1]) == ChunkRows*m.D {
		m.chunks = append(m.chunks, make([]float64, 0, ChunkRows*m.D))
		m.norms = append(m.norms, make([]float64, 0, ChunkRows))
		if m.live != nil {
			m.live = append(m.live, allLiveWords())
			m.liveShared = append(m.liveShared, false)
			m.deadPerChunk = append(m.deadPerChunk, 0)
		}
	}
	k := len(m.chunks) - 1
	m.chunks[k] = append(m.chunks[k], r...)
	m.norms[k] = append(m.norms[k], normSq)
	m.N++
}

// allLiveWords returns a fresh all-ones bitmap chunk (every row live,
// including the padding bits of rows not yet appended).
func allLiveWords() []uint64 {
	w := make([]uint64, LiveWords)
	for i := range w {
		w[i] = ^uint64(0)
	}
	return w
}

// FromRows flattens a [][]float64 dataset into a new Matrix, validating that
// every row has the same dimensionality and a finite squared norm. This is
// the single conversion point at the public API boundary; the input rows are
// copied and never retained. The squared norm is non-finite exactly when a
// coordinate is NaN or ±Inf or when a finite row's norm overflows, and such
// a row is refused in every case: its fused distances would be NaN.
func FromRows(rows [][]float64) (*Matrix, error) {
	d, err := RowsDim(rows)
	if err != nil {
		return nil, err
	}
	m := &Matrix{D: d}
	for i, r := range rows {
		if err := m.appendFinite(i, r, vec.Dot(r, r)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// appendFinite is appendRow for the constructors: it refuses row i when its
// squared norm is not finite.
func (m *Matrix) appendFinite(i int, r []float64, normSq float64) error {
	if !finite(normSq) {
		return fmt.Errorf("matrix: point %d is not finite (squared norm %v)", i, normSq)
	}
	m.appendRow(r, normSq)
	return nil
}

// Finite reports whether FromRows accepts row r: whether its squared norm
// is finite.
func Finite(r []float64) bool { return finite(vec.Dot(r, r)) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// RowsDim returns the common dimensionality of rows, or an error when rows
// is empty, zero-dimensional or ragged — the shape rule FromRows enforces,
// for callers that must check it before touching the rows themselves.
func RowsDim(rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("matrix: empty dataset")
	}
	d := len(rows[0])
	if d == 0 {
		return 0, fmt.Errorf("matrix: zero-dimensional points")
	}
	for i, r := range rows {
		if len(r) != d {
			return 0, fmt.Errorf("matrix: point %d has dimension %d, want %d", i, len(r), d)
		}
	}
	return d, nil
}

// FromFlat copies a row-major slice of n points of dimension d into chunked
// storage. A nil norms computes the norm cache and, like FromRows, refuses a
// row whose squared norm is not finite. Otherwise norms is adopted as the
// cache, unchecked like every restored matrix (FromChunks), which makes the
// legacy v1 snapshot restore bit-identical by construction, independent of
// any future change to the norm kernel.
func FromFlat(data []float64, n, d int, norms []float64) (*Matrix, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %d×%d", n, d)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("matrix: flat data has %d values, want %d×%d = %d", len(data), n, d, n*d)
	}
	if norms != nil && len(norms) != n {
		return nil, fmt.Errorf("matrix: norm cache has %d values, want %d", len(norms), n)
	}
	m := &Matrix{D: d}
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		if norms != nil {
			m.appendRow(row, norms[i])
		} else if err := m.appendFinite(i, row, vec.Dot(row, row)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// FromChunks adopts canonical chunked storage: every chunk but the last must
// hold exactly ChunkRows rows, norms parallel to data. This is the snapshot
// codec's v2 restore path — the chunk slices are taken over without copying,
// which is safe because restored matrices follow the same never-rewrite
// append discipline as built ones.
func FromChunks(data, norms [][]float64, n, d int) (*Matrix, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %d×%d", n, d)
	}
	if want := (n + ChunkRows - 1) / ChunkRows; len(data) != want || len(norms) != want {
		return nil, fmt.Errorf("matrix: %d data / %d norm chunks for %d rows, want %d", len(data), len(norms), n, want)
	}
	for c := range data {
		rows := ChunkRows
		if c == len(data)-1 {
			rows = n - c*ChunkRows
		}
		if len(data[c]) != rows*d {
			return nil, fmt.Errorf("matrix: chunk %d has %d values, want %d", c, len(data[c]), rows*d)
		}
		if len(norms[c]) != rows {
			return nil, fmt.Errorf("matrix: norm chunk %d has %d values, want %d", c, len(norms[c]), rows)
		}
	}
	return &Matrix{chunks: data, norms: norms, N: n, D: d}, nil
}

// FromChunksLive adopts canonical chunked storage together with per-chunk
// liveness bitmaps — the snapshot codec's v3 restore path. live must hold
// one LiveWords-word bitmap per chunk; a chunk with empty data and norms is
// a released chunk and is only legal when it is a full chunk whose bitmap is
// all-zero. As in FromChunks, all slices are taken over without copying.
// A nil live restores a tombstone-free matrix (equivalent to FromChunks).
func FromChunksLive(data, norms [][]float64, live [][]uint64, n, d int) (*Matrix, error) {
	if live == nil {
		return FromChunks(data, norms, n, d)
	}
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %d×%d", n, d)
	}
	want := (n + ChunkRows - 1) / ChunkRows
	if len(data) != want || len(norms) != want || len(live) != want {
		return nil, fmt.Errorf("matrix: %d data / %d norm / %d live chunks for %d rows, want %d",
			len(data), len(norms), len(live), n, want)
	}
	m := &Matrix{
		chunks:       data,
		norms:        norms,
		live:         live,
		liveShared:   make([]bool, want),
		deadPerChunk: make([]int32, want),
		N:            n,
		D:            d,
	}
	for c := range data {
		rows := ChunkRows
		if c == len(data)-1 {
			rows = n - c*ChunkRows
		}
		if len(live[c]) != LiveWords {
			return nil, fmt.Errorf("matrix: live chunk %d has %d words, want %d", c, len(live[c]), LiveWords)
		}
		deadRows := 0
		for w, word := range live[c] {
			// Padding bits (rows ≥ rows-in-chunk) must be 1 — the canonical
			// form the writer produces — so the popcount below counts only
			// real rows.
			lo, hi := w*64, w*64+64
			if lo >= rows && word != ^uint64(0) {
				return nil, fmt.Errorf("matrix: live chunk %d has dead padding in word %d", c, w)
			}
			if lo < rows && hi > rows {
				pad := word >> (uint(rows) & 63)
				if pad != ^uint64(0)>>(uint(rows)&63) {
					return nil, fmt.Errorf("matrix: live chunk %d has dead padding in word %d", c, w)
				}
			}
			deadRows += 64 - bits.OnesCount64(word)
		}
		m.deadPerChunk[c] = int32(deadRows)
		m.dead += deadRows
		if len(data[c]) == 0 && len(norms[c]) == 0 {
			// Released chunk: legal only when sealed (full) and fully dead.
			if rows != ChunkRows || deadRows != ChunkRows {
				return nil, fmt.Errorf("matrix: chunk %d is empty but has %d/%d live rows", c, rows-deadRows, rows)
			}
			m.chunks[c] = nil
			m.norms[c] = nil
			continue
		}
		if len(data[c]) != rows*d {
			return nil, fmt.Errorf("matrix: chunk %d has %d values, want %d", c, len(data[c]), rows*d)
		}
		if len(norms[c]) != rows {
			return nil, fmt.Errorf("matrix: norm chunk %d has %d values, want %d", c, len(norms[c]), rows)
		}
	}
	return m, nil
}

// Snapshot returns a structurally shared frozen copy: sealed chunks are
// shared by reference (they are never rewritten), and only the partially
// filled tail chunk is deep-copied so subsequent AppendRows on the receiver
// cannot disturb the snapshot. Cost is O(ChunkRows·d) plus the chunk-pointer
// copies — independent of N up to n/ChunkRows pointers. The streaming layer
// publishes views with this instead of the pre-segmentation deep Clone.
func (m *Matrix) Snapshot() *Matrix {
	c := &Matrix{
		chunks: append([][]float64(nil), m.chunks...),
		norms:  append([][]float64(nil), m.norms...),
		N:      m.N,
		D:      m.D,
	}
	if k := len(c.chunks) - 1; k >= 0 && c.chunks[k] != nil && len(c.chunks[k]) < ChunkRows*c.D {
		c.chunks[k] = append(make([]float64, 0, len(c.chunks[k])), c.chunks[k]...)
		c.norms[k] = append(make([]float64, 0, len(c.norms[k])), c.norms[k]...)
	}
	if m.live != nil {
		// Liveness goes copy-on-write at chunk granularity: both sides keep
		// the same bitmap chunks and mark them shared, so the next Evict on
		// either side copies the touched chunk's words before clearing bits.
		for k := range m.liveShared {
			m.liveShared[k] = true
		}
		c.live = append([][]uint64(nil), m.live...)
		c.liveShared = make([]bool, len(m.live))
		for k := range c.liveShared {
			c.liveShared[k] = true
		}
		c.deadPerChunk = append([]int32(nil), m.deadPerChunk...)
		c.dead = m.dead
	}
	return c
}

// Live reports whether row i has not been evicted. A matrix that never
// evicted answers true without touching any bitmap.
func (m *Matrix) Live(i int) bool {
	if m.live == nil {
		return true
	}
	w := m.live[i>>ChunkShift]
	r := i & chunkMask
	return w[r>>6]&(1<<(uint(r)&63)) != 0
}

// LiveCount returns the number of rows that have not been evicted.
func (m *Matrix) LiveCount() int { return m.N - m.dead }

// Tombstoned reports whether any row was ever evicted (the legacy v1 codec
// cannot represent tombstones and refuses such matrices).
func (m *Matrix) Tombstoned() bool { return m.live != nil }

// ChunkReleased reports whether chunk c's row storage was reclaimed (every
// row dead and the chunk sealed). Codec and bookkeeping use; Row(i) on a
// released chunk is invalid.
func (m *Matrix) ChunkReleased(c int) bool { return m.chunks[c] == nil }

// LiveChunks exposes the per-chunk liveness bitmaps for the snapshot codec
// (read-only; nil when the matrix never evicted).
func (m *Matrix) LiveChunks() [][]uint64 { return m.live }

// Evict tombstones the given rows. Row data in sealed chunks is never
// rewritten — liveness flips in the (copy-on-write) bitmap only — and row
// indices are stable: evicted rows keep their ids forever. When every row of
// a full chunk is dead the chunk's row and norm storage is released (the
// only physical reclaim; snapshots sharing the chunk are unaffected).
//
// Rows already dead are skipped; out-of-range ids panic (callers validate at
// their boundary). It returns the number of rows newly tombstoned and the
// indices of any chunks released by this call.
func (m *Matrix) Evict(ids []int) (int, []int) {
	if len(ids) == 0 {
		return 0, nil
	}
	if m.live == nil {
		m.live = make([][]uint64, len(m.chunks))
		for c := range m.live {
			m.live[c] = allLiveWords()
		}
		m.liveShared = make([]bool, len(m.chunks))
		m.deadPerChunk = make([]int32, len(m.chunks))
	}
	evicted := 0
	var released []int
	for _, i := range ids {
		if i < 0 || i >= m.N {
			panic(fmt.Sprintf("matrix: evict id %d out of range [0,%d)", i, m.N))
		}
		c := i >> ChunkShift
		r := i & chunkMask
		bit := uint64(1) << (uint(r) & 63)
		if m.live[c][r>>6]&bit == 0 {
			continue // already dead
		}
		if m.liveShared[c] {
			m.live[c] = append([]uint64(nil), m.live[c]...)
			m.liveShared[c] = false
		}
		m.live[c][r>>6] &^= bit
		m.deadPerChunk[c]++
		m.dead++
		evicted++
		if m.deadPerChunk[c] == ChunkRows && m.chunks[c] != nil && len(m.chunks[c]) == ChunkRows*m.D {
			m.chunks[c] = nil
			m.norms[c] = nil
			released = append(released, c)
		}
	}
	return evicted, released
}

// DataChunks exposes the row chunks (read-only) for the snapshot codec.
func (m *Matrix) DataChunks() [][]float64 { return m.chunks }

// NormChunks exposes the per-chunk norm caches (read-only) for the snapshot
// codec.
func (m *Matrix) NormChunks() [][]float64 { return m.norms }

// Row returns row i as a slice aliasing the chunk storage. Callers must not
// mutate it (the norm cache would go stale).
func (m *Matrix) Row(i int) []float64 {
	j := (i & chunkMask) * m.D
	return m.chunks[i>>ChunkShift][j : j+m.D : j+m.D]
}

// NormSq returns the cached squared L2 norm ‖row i‖².
func (m *Matrix) NormSq(i int) float64 { return m.norms[i>>ChunkShift][i&chunkMask] }

// AppendRows appends points (each of dimension D), extending the norm cache.
// It returns the index of the first appended row. Appends never rewrite a
// sealed chunk, so snapshots taken earlier stay frozen.
func (m *Matrix) AppendRows(rows [][]float64) (int, error) {
	first := m.N
	for i, r := range rows {
		if len(r) != m.D {
			return first, fmt.Errorf("matrix: appended point %d has dimension %d, want %d", i, len(r), m.D)
		}
	}
	for _, r := range rows {
		m.appendRow(r, vec.Dot(r, r))
	}
	return first, nil
}

// CancelGuard is the relative threshold below which a fused-identity squared
// distance is considered cancellation-dominated and is recomputed with the
// exact difference form. The identity's absolute error is on the order of
// ulp(‖a‖²+‖b‖²); for datasets offset far from the origin the true squared
// distance can sit entirely below that noise floor, so any fused result
// smaller than CancelGuard·(‖a‖²+‖b‖²) is untrustworthy. The fallback is
// only paid for near-duplicate or far-offset pairs.
const CancelGuard = 1e-9

// DistSq returns ‖row i − q‖² for an external query point q with precomputed
// squared norm qNormSq, using the fused norms+dot identity with an exact
// fallback for cancellation-dominated results (see CancelGuard).
func (m *Matrix) DistSq(i int, q []float64, qNormSq float64) float64 {
	ni := m.NormSq(i)
	s := ni + qNormSq - 2*vec.Dot(m.Row(i), q)
	if s < CancelGuard*(ni+qNormSq) {
		return vec.SquaredL2(m.Row(i), q)
	}
	return s
}

// PairDistSq returns ‖row i − row j‖² via the norms identity, with the same
// exact fallback as DistSq.
func (m *Matrix) PairDistSq(i, j int) float64 {
	ni, nj := m.NormSq(i), m.NormSq(j)
	s := ni + nj - 2*vec.Dot(m.Row(i), m.Row(j))
	if s < CancelGuard*(ni+nj) {
		return vec.SquaredL2(m.Row(i), m.Row(j))
	}
	return s
}

// WeightedCentroid returns Σ w[t]·row(idx[t]) — the ROI ball center D of the
// paper (Eq. 15). Weights are used as given.
func (m *Matrix) WeightedCentroid(idx []int, w []float64) []float64 {
	if len(idx) != len(w) {
		panic(fmt.Sprintf("matrix: index/weight length mismatch %d vs %d", len(idx), len(w)))
	}
	if len(idx) == 0 {
		return nil
	}
	out := make([]float64, m.D)
	for t, id := range idx {
		vec.Axpy(out, w[t], m.Row(id))
	}
	return out
}
