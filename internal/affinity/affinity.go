// Package affinity implements the affinity-graph substrate of the paper
// (Section 3, Eq. 1): the Laplacian-kernel affinity
//
//	a_ij = exp(-k · ‖v_i − v_j‖_p)   for i ≠ j,   a_ii = 0,
//
// together with the three materializations the evaluated methods need:
//
//   - Oracle: lazy, instrumented entry/column computation (what ALID uses —
//     only the submatrix A_{βα} is ever realized);
//   - Dense: the full n×n matrix (what IID, DS and dense AP use);
//   - Sparse: a CSR matrix holding only near-neighbor entries (what SEA and
//     the sparsified variants in the Fig. 6 experiments use).
//
// The Oracle counts every kernel evaluation so experiments can report the
// computed/stored entry counts that drive the paper's complexity claims.
//
// The dataset is held as a contiguous row-major matrix.Matrix: for the
// Euclidean kernel (p = 2, the paper's setting) every distance is evaluated
// as one fused dot product over contiguous rows via the precomputed-norms
// identity ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b.
package affinity

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"alid/internal/matrix"
	"alid/internal/par"
	"alid/internal/vec"
)

// Kernel holds the Laplacian-kernel parameters of Eq. 1.
type Kernel struct {
	// K is the positive scaling factor k of Eq. 1.
	K float64
	// P selects the Lp norm (p ≥ 1) used for distances.
	P float64
	// Jaccard switches the distance from the Lp norm to the banded-signature
	// Jaccard estimate used by the MinHash backend: vectors hold per-position
	// 32-bit hash minima (exact in float64) and the distance is
	// 1 − (matching positions)/len, with positions compared after the same
	// round-half-up quantization the index uses for bucket lanes. When set,
	// P is ignored (the MinHash configuration leaves it zero) and every
	// fused-Euclidean fast path is bypassed.
	Jaccard bool
}

// DefaultKernel returns the kernel used throughout the paper's experiments:
// Euclidean distance (p = 2) with unit scale.
func DefaultKernel() Kernel { return Kernel{K: 1, P: 2} }

// Validate reports whether the kernel parameters are usable.
func (k Kernel) Validate() error {
	if !(k.K > 0) {
		return fmt.Errorf("affinity: scaling factor k must be positive, got %v", k.K)
	}
	if !k.Jaccard && !(k.P >= 1) {
		return fmt.Errorf("affinity: norm order p must be ≥ 1, got %v", k.P)
	}
	return nil
}

// Distance returns the kernel's distance: ‖a−b‖_p for the Lp kernel, the
// estimated Jaccard distance for the Jaccard kernel.
func (k Kernel) Distance(a, b []float64) float64 {
	if k.Jaccard {
		return JaccardDistance(a, b)
	}
	return vec.Lp(a, b, k.P)
}

// JaccardDistance estimates 1 − J(A, B) from two MinHash signature vectors:
// the fraction of signature positions whose minima DISAGREE is an unbiased
// estimate of the Jaccard distance between the underlying sets. Positions are
// compared after round-half-up quantization — floor(x + 0.5), exactly the
// lane value internal/lsh computes for the MinHash basis tables — so the
// affinity column and the bucket keys always agree on what "equal" means,
// even for blended centroid signatures that are no longer integral.
func JaccardDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("affinity: signature length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	match := 0
	for i, x := range a {
		if math.Floor(x+0.5) == math.Floor(b[i]+0.5) {
			match++
		}
	}
	return 1 - float64(match)/float64(len(a))
}

// Affinity returns exp(-k·‖a−b‖_p). Note this is the off-diagonal value; the
// diagonal of an affinity matrix is defined to be zero (Eq. 1) and is handled
// by the matrix constructors, not here.
func (k Kernel) Affinity(a, b []float64) float64 {
	return math.Exp(-k.K * k.Distance(a, b))
}

// Oracle provides on-demand affinity computation over a fixed dataset and
// counts how many kernel evaluations were performed. It is safe for
// concurrent use; the counter is atomic and the dataset is read-only.
//
// Every kernel evaluates a_ij and a_ji with the same operations on swapped
// operands: the norm sum, the per-lane products of Dot and Dot2, the
// CancelGuard fallback to SquaredL2, |a−b| in the Lp sums and the Jaccard
// lane comparison all commute. So Column(i, [j]), Column(j, [i]) and
// Pair(i, j) are equal bit for bit, and a caller holding column j may read
// a_ji from it instead of evaluating a_ij (internal/lid does).
type Oracle struct {
	Mat    *matrix.Matrix
	Kernel Kernel

	computed atomic.Int64
}

// NewOracle validates the kernel and flattens the dataset into a Matrix.
// The rows are copied once; callers may reuse them afterwards.
func NewOracle(pts [][]float64, k Kernel) (*Oracle, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("affinity: empty dataset")
	}
	m, err := matrix.FromRows(pts)
	if err != nil {
		return nil, fmt.Errorf("affinity: %w", err)
	}
	return &Oracle{Mat: m, Kernel: k}, nil
}

// NewOracleMatrix validates the kernel and wraps an existing flat dataset
// without copying. The matrix must not be mutated while the oracle is in use.
func NewOracleMatrix(m *matrix.Matrix, k Kernel) (*Oracle, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if m == nil || m.N == 0 {
		return nil, fmt.Errorf("affinity: empty dataset")
	}
	return &Oracle{Mat: m, Kernel: k}, nil
}

// N returns the dataset size.
func (o *Oracle) N() int { return o.Mat.N }

// affinityPair evaluates exp(-k·‖v_i−v_j‖_p) on matrix rows, using the fused
// norms+dot distance for p = 2.
func (o *Oracle) affinityPair(i, j int) float64 {
	if o.Kernel.P == 2 {
		return math.Exp(-o.Kernel.K * math.Sqrt(o.Mat.PairDistSq(i, j)))
	}
	return o.Kernel.Affinity(o.Mat.Row(i), o.Mat.Row(j))
}

// At returns a_ij per Eq. 1 (zero on the diagonal) and counts the evaluation.
func (o *Oracle) At(i, j int) float64 {
	if i == j {
		return 0
	}
	o.computed.Add(1)
	return o.affinityPair(i, j)
}

// Pair is At without the count, for scans that credit their evaluations
// with one AddComputed.
func (o *Oracle) Pair(i, j int) float64 {
	if i == j {
		return 0
	}
	return o.affinityPair(i, j)
}

// Column fills dst[r] = a_{rows[r], j} for the given global column j.
// dst must have len(rows). This is the A_{βi} column of Fig. 3, computed as
// one fused pass over contiguous rows; it performs no allocation.
func (o *Oracle) Column(j int, rows []int, dst []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("affinity: dst length %d != rows length %d", len(dst), len(rows)))
	}
	o.fillColumn(j, rows, dst)
}

// columnGrain is the row-chunk size of ColumnPar. Fixed (never derived from
// the worker count or GOMAXPROCS) so chunk boundaries — and therefore the
// Dot2 row pairing within each chunk — are machine-independent. Pairing does
// not affect values anyway (Dot2's per-row lane order matches vec.Dot
// exactly, see fillColumn), but a fixed grain keeps the execution shape
// reproducible too.
const columnGrain = 512

// columnParMin is the minimum row count before ColumnPar fans out.
const columnParMin = 2 * columnGrain

// ColumnPar is Column with the row fill fanned out over the pool in fixed
// chunks of columnGrain rows. Every entry dst[r] depends only on (j, rows[r])
// — each chunk writes a disjoint dst range — so the result is bit-identical
// to the serial Column whatever the worker count. Short columns (under two
// chunks) and serial pools take the plain Column path; the evaluation
// counter is accumulated atomically per chunk, leaving the total exact.
func (o *Oracle) ColumnPar(p *par.Pool, j int, rows []int, dst []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("affinity: dst length %d != rows length %d", len(dst), len(rows)))
	}
	if !p.Parallel() || len(rows) < columnParMin {
		o.fillColumn(j, rows, dst)
		return
	}
	p.ForChunks(len(rows), columnGrain, func(_, lo, hi int) {
		o.fillColumn(j, rows[lo:hi], dst[lo:hi])
	})
}

// fillColumn computes one contiguous range of an affinity column (the body
// shared by Column and ColumnPar's chunks).
func (o *Oracle) fillColumn(j int, rows []int, dst []float64) {
	vj := o.Mat.Row(j)
	k := o.Kernel.K
	n := int64(0)
	if o.Kernel.P == 2 {
		m := o.Mat
		nj := m.NormSq(j)
		vj = m.Row(j)
		// Two passes: first the fused squared distances (pure dot-product
		// throughput — the out-of-order core overlaps consecutive rows), then
		// the exp/sqrt transform. One mixed loop is ~25% slower because the
		// math.Exp call serializes each iteration. The distance pass handles
		// two rows per Dot2 step so each block of vj loads is reused; Dot2's
		// per-row lane order matches vec.Dot exactly and the cancellation
		// fallback mirrors Matrix.PairDistSq, keeping Column bit-identical to
		// per-pair At evaluation. Rows and norms come from the segmented
		// chunk storage; within a chunk both are as contiguous as the old
		// flat layout, and the accessed rows are arbitrary either way.
		r := 0
		for ; r+2 <= len(rows); r += 2 {
			row0, row1 := rows[r], rows[r+1]
			va := m.Row(row0)
			vb := m.Row(row1)
			n0 := m.NormSq(row0)
			n1 := m.NormSq(row1)
			dotA, dotB := vec.Dot2(vj, va, vb)
			d0 := n0 + nj - 2*dotA
			if d0 < matrix.CancelGuard*(n0+nj) {
				d0 = vec.SquaredL2(va, vj)
			}
			d1 := n1 + nj - 2*dotB
			if d1 < matrix.CancelGuard*(n1+nj) {
				d1 = vec.SquaredL2(vb, vj)
			}
			dst[r] = d0
			dst[r+1] = d1
		}
		for ; r < len(rows); r++ {
			row := rows[r]
			va := m.Row(row)
			n0 := m.NormSq(row)
			d0 := n0 + nj - 2*vec.Dot(va, vj)
			if d0 < matrix.CancelGuard*(n0+nj) {
				d0 = vec.SquaredL2(va, vj)
			}
			dst[r] = d0
		}
		for r, row := range rows {
			if row == j {
				dst[r] = 0
				continue
			}
			dst[r] = math.Exp(-k * math.Sqrt(dst[r]))
			n++
		}
	} else {
		for r, row := range rows {
			if row == j {
				dst[r] = 0
				continue
			}
			dst[r] = math.Exp(-k * o.Kernel.Distance(o.Mat.Row(row), vj))
			n++
		}
	}
	o.computed.Add(n)
}

// ColumnPoint fills dst[r] = exp(-k·‖v_{rows[r]} − q‖_p) for an EXTERNAL
// query point q with precomputed squared norm qNormSq (only used for p = 2).
// It is the flat-point counterpart of Column for points that are not dataset
// rows — the serving engine's assign path scores a query against cluster
// members with it. Same two-pass idiom as Column (fused squared distances,
// then the exp/sqrt transform), same Dot2 lane order and cancellation
// fallback, so an external q equal to a dataset row yields bit-identical
// affinities to the in-dataset evaluation — except there is no diagonal:
// a true duplicate scores exp(0) = 1, not 0. It performs no allocation and
// is safe for concurrent use.
func (o *Oracle) ColumnPoint(q []float64, qNormSq float64, rows []int, dst []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("affinity: dst length %d != rows length %d", len(dst), len(rows)))
	}
	if len(q) != o.Mat.D {
		panic(fmt.Sprintf("affinity: query dimension %d, want %d", len(q), o.Mat.D))
	}
	k := o.Kernel.K
	if o.Kernel.P == 2 {
		m := o.Mat
		r := 0
		for ; r+2 <= len(rows); r += 2 {
			row0, row1 := rows[r], rows[r+1]
			va := m.Row(row0)
			vb := m.Row(row1)
			n0 := m.NormSq(row0)
			n1 := m.NormSq(row1)
			dotA, dotB := vec.Dot2(q, va, vb)
			d0 := n0 + qNormSq - 2*dotA
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			d1 := n1 + qNormSq - 2*dotB
			if d1 < matrix.CancelGuard*(n1+qNormSq) {
				d1 = vec.SquaredL2(vb, q)
			}
			dst[r] = d0
			dst[r+1] = d1
		}
		for ; r < len(rows); r++ {
			row := rows[r]
			va := m.Row(row)
			n0 := m.NormSq(row)
			d0 := n0 + qNormSq - 2*vec.Dot(va, q)
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			dst[r] = d0
		}
		for r := range dst {
			dst[r] = math.Exp(-k * math.Sqrt(dst[r]))
		}
	} else {
		for r, row := range rows {
			dst[r] = math.Exp(-k * o.Kernel.Distance(o.Mat.Row(row), q))
		}
	}
	o.computed.Add(int64(len(rows)))
}

// ColumnPointPacked is ColumnPoint over rows packed contiguously (row-major,
// len(q)-strided) with their precomputed squared norms, instead of gathered
// by dataset index. Packing trades memory for a sequential scan — the batched
// Assign path stores each cluster's member rows back-to-back so the hot exact
// scan streams instead of gathers. The arithmetic is ColumnPoint's
// exactly: same Dot2 lane order, same cancellation fallback, same fused
// transform pass — packed copies of the same rows yield bit-identical
// affinities. Unlike ColumnPoint it does not touch the evaluation counter;
// the caller accounts scanned rows via AddComputed (one add per batch).
func (o *Oracle) ColumnPointPacked(q []float64, qNormSq float64, rows, norms, dst []float64) {
	d := len(q)
	if d != o.Mat.D {
		panic(fmt.Sprintf("affinity: query dimension %d, want %d", d, o.Mat.D))
	}
	n := len(norms)
	if len(rows) != n*d || len(dst) != n {
		panic(fmt.Sprintf("affinity: packed shape %d/%d for %d rows of dim %d", len(rows), len(dst), n, d))
	}
	k := o.Kernel.K
	if o.Kernel.P == 2 {
		r := 0
		for ; r+2 <= n; r += 2 {
			va := rows[r*d : r*d+d : r*d+d]
			vb := rows[r*d+d : r*d+2*d : r*d+2*d]
			n0 := norms[r]
			n1 := norms[r+1]
			// vec.Dot2's body, inlined: the call, its length checks and the
			// slice-header traffic are measurable at this call rate, and the
			// accumulation order must be Dot2's exactly for bit-identity.
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			i := 0
			for ; i+4 <= d; i += 4 {
				x0, x1, x2, x3 := q[i], q[i+1], q[i+2], q[i+3]
				a0 += va[i] * x0
				a1 += va[i+1] * x1
				a2 += va[i+2] * x2
				a3 += va[i+3] * x3
				b0 += vb[i] * x0
				b1 += vb[i+1] * x1
				b2 += vb[i+2] * x2
				b3 += vb[i+3] * x3
			}
			for ; i < d; i++ {
				a0 += va[i] * q[i]
				b0 += vb[i] * q[i]
			}
			dotA := (a0 + a1) + (a2 + a3)
			dotB := (b0 + b1) + (b2 + b3)
			d0 := n0 + qNormSq - 2*dotA
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			d1 := n1 + qNormSq - 2*dotB
			if d1 < matrix.CancelGuard*(n1+qNormSq) {
				d1 = vec.SquaredL2(vb, q)
			}
			dst[r] = d0
			dst[r+1] = d1
		}
		for ; r < n; r++ {
			va := rows[r*d : r*d+d : r*d+d]
			n0 := norms[r]
			d0 := n0 + qNormSq - 2*vec.Dot(va, q)
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			dst[r] = d0
		}
		for r := range dst {
			dst[r] = math.Exp(-k * math.Sqrt(dst[r]))
		}
	} else {
		for r := 0; r < n; r++ {
			dst[r] = math.Exp(-k * o.Kernel.Distance(rows[r*d:r*d+d:r*d+d], q))
		}
	}
}

// ScorePacked is the batch pipeline's exact candidate score: ColumnPointPacked
// plus the weighted sum, with the sum riding the exp pass instead of running
// as a third traversal. It returns Σ_r w[r]·exp(-k·dist(q, row_r)) accumulated
// in row order with a single accumulator — exactly the value (bit for bit) of
// running ColumnPointPacked into dst and summing w[r]·dst[r] in index order,
// which is in turn the sequential path's score. dst is caller scratch of n
// entries (it holds the column's scaled distances mid-call; contents on
// return are unspecified). The distance pass stays call-free — keeping
// math.Exp out of the dot loop is worth a full pass on this host — and the
// −k·√· post-transform rides the distance pass too, so the long-latency
// SQRTSD overlaps the next rows' independent dot products instead of
// serializing in front of each Exp call. Relocating the per-row sqrt and
// scale does not change their bits: each row still computes
// exp(-k·sqrt(d²)) with the same operations in the same order. Like
// ColumnPointPacked it leaves the evaluation counter to the caller
// (AddComputed).
func (o *Oracle) ScorePacked(q []float64, qNormSq float64, rows, norms, w, dst []float64) float64 {
	d := len(q)
	if d != o.Mat.D {
		panic(fmt.Sprintf("affinity: query dimension %d, want %d", d, o.Mat.D))
	}
	n := len(norms)
	if len(rows) != n*d || len(w) != n || len(dst) != n {
		panic(fmt.Sprintf("affinity: packed shape %d/%d/%d for %d rows of dim %d", len(rows), len(w), len(dst), n, d))
	}
	k := o.Kernel.K
	var sc float64
	if o.Kernel.P == 2 {
		r := 0
		for ; r+2 <= n; r += 2 {
			va := rows[r*d : r*d+d : r*d+d]
			vb := rows[r*d+d : r*d+2*d : r*d+2*d]
			n0 := norms[r]
			n1 := norms[r+1]
			// vec.Dot2's body, inlined — see ColumnPointPacked.
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			i := 0
			for ; i+4 <= d; i += 4 {
				x0, x1, x2, x3 := q[i], q[i+1], q[i+2], q[i+3]
				a0 += va[i] * x0
				a1 += va[i+1] * x1
				a2 += va[i+2] * x2
				a3 += va[i+3] * x3
				b0 += vb[i] * x0
				b1 += vb[i+1] * x1
				b2 += vb[i+2] * x2
				b3 += vb[i+3] * x3
			}
			for ; i < d; i++ {
				a0 += va[i] * q[i]
				b0 += vb[i] * q[i]
			}
			dotA := (a0 + a1) + (a2 + a3)
			dotB := (b0 + b1) + (b2 + b3)
			d0 := n0 + qNormSq - 2*dotA
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			d1 := n1 + qNormSq - 2*dotB
			if d1 < matrix.CancelGuard*(n1+qNormSq) {
				d1 = vec.SquaredL2(vb, q)
			}
			dst[r] = -k * math.Sqrt(d0)
			dst[r+1] = -k * math.Sqrt(d1)
		}
		for ; r < n; r++ {
			va := rows[r*d : r*d+d : r*d+d]
			n0 := norms[r]
			d0 := n0 + qNormSq - 2*vec.Dot(va, q)
			if d0 < matrix.CancelGuard*(n0+qNormSq) {
				d0 = vec.SquaredL2(va, q)
			}
			dst[r] = -k * math.Sqrt(d0)
		}
		for r := range dst {
			sc += w[r] * math.Exp(dst[r])
		}
	} else {
		for r := 0; r < n; r++ {
			sc += w[r] * math.Exp(-k*o.Kernel.Distance(rows[r*d:r*d+d:r*d+d], q))
		}
	}
	return sc
}

// AddComputed credits n kernel evaluations to the oracle's counter. The
// packed scan primitives (ColumnPointPacked, ScorePacked) leave accounting to
// the caller, so a batch pipeline folds a whole batch's row counts into one
// atomic add instead of paying one per candidate scan.
func (o *Oracle) AddComputed(n int64) { o.computed.Add(n) }

// Computed returns the total number of kernel evaluations so far.
func (o *Oracle) Computed() int64 { return o.computed.Load() }

// ResetComputed zeroes the evaluation counter and returns the previous value.
func (o *Oracle) ResetComputed() int64 { return o.computed.Swap(0) }

// Dense is a fully materialized n×n affinity matrix with zero diagonal.
type Dense struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewDense materializes the full matrix from the oracle: O(n²) time and
// space, exactly the cost the paper's baselines pay. Row blocks fan out over
// GOMAXPROCS workers through internal/par; every entry is written exactly
// once, so the result is identical to the sequential fill.
func NewDense(o *Oracle) *Dense {
	n := o.N()
	d := &Dense{N: n, Data: make([]float64, n*n)}
	pool := par.New(-1)
	evals := make([]int64, pool.Workers())
	const block = 32
	pool.Each(par.NumChunks(n, block), func(w, c int) {
		for i := c * block; i < min((c+1)*block, n); i++ {
			row := d.Data[i*n : (i+1)*n]
			for j := i + 1; j < n; j++ {
				a := o.affinityPair(i, j)
				row[j] = a
				d.Data[j*n+i] = a
			}
			evals[w] += int64(n - 1 - i)
		}
	})
	var total int64
	for _, e := range evals {
		total += e
	}
	o.computed.Add(total)
	return d
}

// At returns a_ij.
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.N+j] }

// Row returns row i as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.N : (i+1)*d.N] }

// MulVec computes dst = A·x. dst and x must have length N and not alias.
func (d *Dense) MulVec(dst, x []float64) {
	n := d.N
	for i := 0; i < n; i++ {
		dst[i] = vec.Dot(d.Data[i*n:(i+1)*n], x)
	}
}

// Sparse is a CSR matrix holding only the retained (near-neighbor) affinity
// entries. It is always stored symmetrized with a zero diagonal.
type Sparse struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NewSparse builds a symmetric CSR matrix from per-row neighbor lists. The
// lists need not be symmetric; an edge present in either direction is kept in
// both. Self-loops are dropped (a_ii = 0 per Eq. 1).
//
// The build symmetrizes via a flat packed edge list sorted and deduplicated
// in place — one allocation of 2·Σ|list| int64s — instead of the seed's
// map-of-sets, whose per-row maps dominated allocation churn for the Fig. 6
// sparsified baselines.
func NewSparse(o *Oracle, neighbors [][]int) *Sparse {
	n := o.N()
	if len(neighbors) != n {
		panic(fmt.Sprintf("affinity: %d neighbor lists for %d points", len(neighbors), n))
	}
	total := 0
	for _, list := range neighbors {
		total += len(list)
	}
	// Pack each directed edge as i<<32|j; both directions are emitted so a
	// sort + dedup yields the symmetrized adjacency in CSR order.
	edges := make([]int64, 0, 2*total)
	for i, list := range neighbors {
		for _, j := range list {
			if j == i || j < 0 || j >= n {
				continue
			}
			edges = append(edges, int64(i)<<32|int64(j))
			edges = append(edges, int64(j)<<32|int64(i))
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	s := &Sparse{
		N:      n,
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, len(edges)),
		Val:    make([]float64, len(edges)),
	}
	for t, e := range edges {
		i, j := int(e>>32), int(int32(e))
		s.Col[t] = int32(j)
		s.Val[t] = o.At(i, j)
		s.RowPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	return s
}

// NNZ returns the number of stored (nonzero-position) entries.
func (s *Sparse) NNZ() int { return len(s.Col) }

// SparseDegree returns the fraction of the full n×n matrix that is NOT
// stored, the "sparse degree" metric of Section 5.1.
func (s *Sparse) SparseDegree() float64 {
	n := float64(s.N)
	return 1 - float64(s.NNZ())/(n*n)
}

// Row returns the column indices and values of row i (aliases storage).
func (s *Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	return s.Col[lo:hi], s.Val[lo:hi]
}

// MulVec computes dst = A·x using only stored entries.
func (s *Sparse) MulVec(dst, x []float64) {
	for i := 0; i < s.N; i++ {
		cols, vals := s.Row(i)
		var sum float64
		for t, j := range cols {
			sum += vals[t] * x[j]
		}
		dst[i] = sum
	}
}
