// The per-generation candidate-retrieval structure behind the batched Assign
// pipeline. It is DERIVED state, built lazily by the first batch against a
// published generation (never at publish time, so commit latency stays
// O(batch)), immutable once built, and dropped with its state:
//
//   - sum: per LSH table, bucket key → the distinct candidate clusters of the
//     bucket's live members, in first-seen (ascending id) order. A batched
//     query resolves its candidate clusters with one hash + one map lookup
//     per table instead of enumerating and deduplicating bucket members. The
//     per-query cluster sequence this produces is exactly the single-point
//     path's first-seen label order: id-level dedup never removes the first
//     occurrence of a label, so skipping it cannot reorder labels.
//
//   - anchor/rad/wsum: a per-cluster pruning bound. For any anchor point A,
//     the Minkowski triangle inequality gives d(q,s) ≥ d(q,A) − d(A,s), so
//     with rad = max over members of d(A,s):
//
//     score(q,c) = Σ w·exp(-k·d(q,s)) ≤ (Σw)·exp(-k·max(0, d(q,A) − rad)).
//
//     One kernel evaluation per (query, candidate cluster) discards far
//     clusters before any member row is touched. rad and wsum are inflated
//     for fp rounding so the bound is rigorous; pruning on it never changes
//     an answer (a pruned cluster's exact score sits strictly below an
//     already-established exact lower bound).
package engine

import (
	"math"

	"alid/internal/affinity"
	"alid/internal/vec"
)

// bucketSum is one LSH table's bucket→clusters summary as an open-addressed
// hash (power-of-two capacity, linear probing, ≤50% load): the batch path
// does Tables lookups per query, and a flat probe over three parallel arrays
// is a few ns where a Go map lookup is tens. Slots with start<0 are empty;
// cluster lists live back-to-back in the shared cls arena, each in the
// single-point path's first-seen order. Built once per generation, read-only
// after.
type bucketSum struct {
	mask  uint64
	keys  []uint64
	start []int32
	end   []int32
	cls   []int32
}

// mix64 is the avalanche mix used to place keys (bucket keys are themselves
// multiplicative folds, but linear probing wants the high bits spread).
func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x
}

func (bsu *bucketSum) insert(key uint64, cls []int32) {
	i := mix64(key) & bsu.mask
	for bsu.start[i] >= 0 {
		i = (i + 1) & bsu.mask
	}
	bsu.keys[i] = key
	bsu.start[i] = int32(len(bsu.cls))
	bsu.cls = append(bsu.cls, cls...)
	bsu.end[i] = int32(len(bsu.cls))
}

// lookup returns the bucket's cluster list, nil when the bucket is dead.
func (bsu *bucketSum) lookup(key uint64) []int32 {
	i := mix64(key) & bsu.mask
	for {
		s := bsu.start[i]
		if s < 0 {
			return nil
		}
		if bsu.keys[i] == key {
			return bsu.cls[s:bsu.end[i]]
		}
		i = (i + 1) & bsu.mask
	}
}

// batchIndex is the lazy per-state structure described in the file comment.
type batchIndex struct {
	// sum[t] resolves table t's bucket key to its candidate clusters, in the
	// single-point path's first-seen order.
	sum []bucketSum
	// anchor is nClusters × dim row-major; rad and wsum are per cluster
	// (both inflated upward for fp rigor). hasAnchors is false for kernels
	// whose Minkowski exponent is below 1 (no triangle inequality).
	anchor     []float64
	rad        []float64
	wsum       []float64
	hasAnchors bool
	// pk packs each cluster's member rows contiguously (row-major, dim-
	// strided) with their squared norms in pkn; cluster ci's members occupy
	// packed rows [pkOff[ci], pkOff[ci+1]). The values are exact copies of
	// the matrix rows, so the exact scan streams sequential memory and
	// stays bit-identical to a gathered scan. Costs one extra O(n·d) copy of
	// the member rows per generation — derived, never persisted.
	pk    []float64
	pkn   []float64
	pkOff []int32
}

// batchIdx returns the generation's batchIndex, building it on first use.
// sync.Once publishes the build to every concurrent batch reader.
func (st *state) batchIdx() *batchIndex {
	st.bidxOnce.Do(func() { st.bidx = buildBatchIndex(st) })
	return st.bidx
}

func buildBatchIndex(st *state) *batchIndex {
	v := st.view
	nc := len(v.Clusters)
	nt := v.Index.Tables()
	bi := &batchIndex{sum: make([]bucketSum, nt)}
	// Collect every live bucket's deduplicated cluster list first, then size
	// each table's flat hash to ≤50% load and insert.
	type bucketEnt struct {
		key    uint64
		lo, hi int32
	}
	ents := make([][]bucketEnt, nt)
	var arena []int32
	mark := make([]uint32, nc)
	var gen uint32
	v.Index.VisitLiveBuckets(func(t int, key uint64, ids []int32) {
		gen++
		lo := int32(len(arena))
		for _, id := range ids {
			ci := v.Labels.At(int(id))
			if ci < 0 || mark[ci] == gen {
				continue
			}
			mark[ci] = gen
			arena = append(arena, int32(ci))
		}
		if hi := int32(len(arena)); hi > lo {
			ents[t] = append(ents[t], bucketEnt{key, lo, hi})
		}
	})
	for t, es := range ents {
		capz := 8
		for capz < 2*len(es) {
			capz <<= 1
		}
		bsu := &bi.sum[t]
		bsu.mask = uint64(capz - 1)
		bsu.keys = make([]uint64, capz)
		bsu.start = make([]int32, capz)
		bsu.end = make([]int32, capz)
		for i := range bsu.start {
			bsu.start[i] = -1
		}
		for _, e := range es {
			bsu.insert(e.key, arena[e.lo:e.hi])
		}
	}

	kern := st.oracle.Kernel
	d := st.dim
	// Anchor bounds rest on the triangle inequality of the Lp norm; the
	// Jaccard kernel's quantized-position distance is kept off the anchor
	// path (its blended centroids are not guaranteed useful anchors), so set
	// workloads always take the exact per-candidate score.
	bi.hasAnchors = kern.P >= 1 && !kern.Jaccard
	bi.wsum = make([]float64, nc)
	if bi.hasAnchors {
		bi.anchor = make([]float64, nc*d)
		bi.rad = make([]float64, nc)
	}
	bi.pkOff = make([]int32, nc+1)
	for ci, cl := range v.Clusters {
		bi.pkOff[ci+1] = bi.pkOff[ci] + int32(len(cl.Members))
	}
	total := int(bi.pkOff[nc])
	bi.pk = make([]float64, total*d)
	bi.pkn = make([]float64, total)
	for ci, cl := range v.Clusters {
		at := int(bi.pkOff[ci])
		for _, m := range cl.Members {
			copy(bi.pk[at*d:(at+1)*d], v.Mat.Row(m))
			bi.pkn[at] = v.Mat.NormSq(m)
			at++
		}
	}
	for ci, cl := range v.Clusters {
		var ws float64
		for _, w := range cl.Weights {
			ws += w
		}
		bi.wsum[ci] = ws * (1 + 1e-9)
		if !bi.hasAnchors || len(cl.Members) == 0 {
			continue
		}
		a := bi.anchor[ci*d : (ci+1)*d]
		for _, m := range cl.Members {
			row := v.Mat.Row(m)
			for j, x := range row {
				a[j] += x
			}
		}
		inv := 1 / float64(len(cl.Members))
		for j := range a {
			a[j] *= inv
		}
		var rad float64
		for _, m := range cl.Members {
			if dd := distP(v.Mat.Row(m), a, kern.P); dd > rad {
				rad = dd
			}
		}
		bi.rad[ci] = rad*(1+1e-9) + 1e-9
	}
	return bi
}

// anchorBound evaluates the anchor bound for (q, cluster ci): the query's
// anchor-proximity walk-order key (the distance for general kernels, the
// SQUARED distance for the Euclidean one — same ordering, cheaper key) and a
// rigorous upper bound on the exact weighted score. When the query sits
// inside the anchor radius the slack clamps to zero and the bound is the
// inflated weight mass itself — Σw upper-bounds the score unconditionally
// (affinities are ≤ 1), so that common case needs neither sqrt nor exp.
// When anchors are unavailable it reports (0, +Inf): no ordering signal,
// no bound.
func (bi *batchIndex) anchorBound(kern affinity.Kernel, q []float64, ci, dim int) (key, ub float64) {
	if !bi.hasAnchors {
		return 0, math.Inf(1)
	}
	a := bi.anchor[ci*dim : (ci+1)*dim]
	rad := bi.rad[ci]
	if kern.P == 2 {
		d2 := vec.SquaredL2(q, a)
		if d2 <= rad*rad {
			return d2, bi.wsum[ci]*(1+1e-9) + 1e-12
		}
		return d2, bi.wsum[ci]*math.Exp(-kern.K*(math.Sqrt(d2)-rad))*(1+1e-9) + 1e-12
	}
	dist := distP(q, a, kern.P)
	slack := dist - rad
	if slack < 0 {
		slack = 0
	}
	return dist, bi.wsum[ci]*math.Exp(-kern.K*slack)*(1+1e-9) + 1e-12
}

// distP is the kernel's Minkowski distance (the same metric the affinity
// oracle exponentiates).
func distP(a, b []float64, p float64) float64 {
	switch p {
	case 2:
		return vec.L2(a, b)
	case 1:
		return vec.L1(a, b)
	default:
		return vec.Lp(a, b, p)
	}
}
