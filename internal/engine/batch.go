// This file is the batched Assign pipeline: one snapshot load for a whole
// batch of queries, candidate clusters resolved from the generation's lazy
// bucket→cluster summary (one hash + one map lookup per LSH table — no
// per-id enumeration), and a two-step scoring cascade per query:
//
//  1. Anchor bound: one kernel evaluation per (query, candidate cluster)
//     against the cluster's precomputed anchor/radius (batchindex.go) upper-
//     bounds the exact score, and the anchor distance orders the walk so the
//     most likely winner is scored first.
//  2. Exact scan: every candidate whose anchor bound reaches the best exact
//     score so far is scored EXACTLY over its full member set
//     (affinity.ScorePacked — the same kernel, rows and summation order as
//     the single-point path, fused into one streaming pass), and the best
//     exact score tightens as the walk proceeds.
//
// Winners and scores are bit-identical to N sequential Assign calls: both
// paths see the same candidate clusters, every candidate is either exactly
// scored or excluded by a rigorous bound placing it strictly below an
// exactly-scored competitor, and both resolve ties by first-seen candidate
// order. The one deliberate difference is the Candidates diagnostic: the
// batch pipeline never materializes per-point candidates, so it reports
// candidate CLUSTERS examined, where the single-point path reports
// deduplicated candidate points.
//
// The batch path never touches the writer and allocates nothing at steady
// state: all arenas live in a pooled batchScratch that only ever grows.

package engine

import (
	"fmt"
	"math"

	"alid/internal/obs"
	"alid/internal/vec"
)

// batchScratch is the per-batch workspace, pooled per published state. Every
// slice is either fixed-size for the generation (markers) or a grow-only
// arena re-sliced per batch, so steady batch traffic allocates nothing — a
// batch larger than any previous grows the arenas once; they never shrink.
type batchScratch struct {
	// Fixed-size per generation.
	sig   []int64  // LSH signature scratch, len Projections
	keys  []uint64 // per-table bucket keys, len Tables
	cmark []uint32 // per-query per-cluster dedup, len clusters
	gen   uint32

	// Grow-only arenas.
	cids  []int32   // per-query candidate clusters, concatenated ("slots")
	dan   []float64 // slot → anchor-proximity key (squared distance for P=2)
	ubs   []float64 // slot → anchor upper bound on the exact score
	order []int32   // slot processing order (ascending anchor distance)
	col   []float64 // distance scratch for the fused exact scoring scan
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// AssignBatch classifies a batch of query points in one pass over the
// published state: lock-free, mutation-free, and its winners, scores,
// densities and infectivity flags — in order — are bit-identical to len(qs)
// sequential Assign calls against the same published view (Candidates counts
// clusters here; see the file comment). Validation is atomic: one bad point
// fails the whole batch (the error names the offending index) and nothing is
// scored or counted.
func (e *Engine) AssignBatch(qs [][]float64) ([]Assignment, error) {
	return e.AssignBatchInto(qs, make([]Assignment, 0, len(qs)))
}

// AssignBatchInto is AssignBatch appending into out (resliced to out[:0]),
// so steady-state callers that recycle their result slice allocate nothing.
func (e *Engine) AssignBatchInto(qs [][]float64, out []Assignment) ([]Assignment, error) {
	out, _, err := e.assignBatchPinned(qs, out)
	return out, err
}

// assignBatchPinned is AssignBatchInto pinned to ONE published generation,
// additionally reporting that generation's maintained-cluster count from the
// same state load (the sharded router's cluster-id offsetting needs the
// answers and the count to be coherent — see assignPinned).
func (e *Engine) assignBatchPinned(qs [][]float64, out []Assignment) ([]Assignment, int, error) {
	out = out[:0]
	st := e.state.Load()
	nClusters := 0
	if st != nil {
		nClusters = len(st.view.Clusters)
	}
	if len(qs) == 0 {
		return out, nClusters, nil
	}
	if st == nil || st.view.Mat == nil || st.view.Index == nil {
		// Same non-servable answer as the single-point path: noise, no error.
		for range qs {
			out = append(out, Assignment{Cluster: -1})
		}
		return out, nClusters, nil
	}
	for i, q := range qs {
		if err := queryErr(q, st.dim); err != nil {
			return nil, nClusters, fmt.Errorf("engine: point %d: %w", i, err)
		}
	}
	e.assigns.Add(int64(len(qs)))
	start := obs.Now()
	bs := st.bpool.Get().(*batchScratch)
	out = e.assignBatch(st, bs, qs, out)
	st.bpool.Put(bs)
	e.met.batchPoints.Observe(int64(len(qs)))
	e.met.assignBatch.ObserveSince(start)
	return out, nClusters, nil
}

// assignBatch runs the batched scoring pipeline over pre-validated queries.
func (e *Engine) assignBatch(st *state, bs *batchScratch, qs [][]float64, out []Assignment) []Assignment {
	bi := st.batchIdx()
	kern := st.oracle.Kernel
	var scanned int64 // rows kernel-scanned, credited per batch
	// Prune-tier tallies, flushed with one atomic add per batch (not per
	// query) to keep the hot loop free of shared-cacheline traffic.
	var anchorPruned, exactScans, noise int64
	// Reserve one marker generation per query; on wrap-around reset markers.
	if bs.gen > ^uint32(0)-uint32(len(qs))-1 {
		clear(bs.cmark)
		bs.gen = 0
	}

	for _, q := range qs {
		bs.gen++
		gen := bs.gen
		// Candidate clusters straight from the generation's bucket→cluster
		// summary — one hash and one map lookup per table, no id enumeration.
		// The first-seen cluster order matches the single-point path exactly
		// (see batchindex.go); slot index order encodes it.
		st.view.Index.BucketKeys(q, bs.sig, bs.keys)
		bs.cids = bs.cids[:0]
		for t, key := range bs.keys {
			for _, ci := range bi.sum[t].lookup(key) {
				if bs.cmark[ci] == gen {
					continue
				}
				bs.cmark[ci] = gen
				bs.cids = append(bs.cids, ci)
			}
		}
		nc := len(bs.cids)
		e.met.candClusters.Observe(int64(nc))
		if nc == 0 {
			noise++
			out = append(out, Assignment{Cluster: -1})
			continue
		}
		qn := vec.Dot(q, q)

		// Anchor bounds, then the walk order: ascending anchor proximity, so
		// the candidate most likely to win is exactly scored first and its
		// exact score prunes the rest. Ties keep first-seen order.
		bs.dan = growF64(bs.dan, nc)
		bs.ubs = growF64(bs.ubs, nc)
		bs.order = growI32(bs.order, nc)
		for s, ci := range bs.cids {
			bs.dan[s], bs.ubs[s] = bi.anchorBound(kern, q, int(ci), st.dim)
			bs.order[s] = int32(s)
		}
		ord := bs.order[:nc]
		for j := 1; j < nc; j++ { // insertion sort; candidate counts are tiny
			x := ord[j]
			i := j - 1
			for ; i >= 0 && bs.dan[ord[i]] > bs.dan[x]; i-- {
				ord[i+1] = ord[i]
			}
			ord[i+1] = x
		}

		// The walk: every candidate is exactly scored unless its anchor bound
		// places it strictly below an exact competitor.
		bestScore := math.Inf(-1)
		bestSlot := -1
		for _, s32 := range ord {
			s := int(s32)
			if bs.ubs[s] < bestScore {
				anchorPruned++
				continue // anchor-pruned: strictly below an exact score
			}
			ci := int(bs.cids[s])
			cl := st.view.Clusters[ci]
			lo, hi := int(bi.pkOff[ci]), int(bi.pkOff[ci+1])
			exactScans++
			scanned += int64(hi - lo)
			bs.col = growF64(bs.col, hi-lo)
			sc := st.oracle.ScorePacked(q, qn, bi.pk[lo*st.dim:hi*st.dim], bi.pkn[lo:hi], cl.Weights, bs.col)
			// Keep the maximum exact score; on exact ties the earlier
			// first-seen candidate (smaller slot) wins — the single-point
			// path's first-strict-max rule.
			if sc > bestScore || (sc == bestScore && s < bestSlot) {
				bestScore, bestSlot = sc, s
			}
		}

		if bestSlot < 0 {
			noise++
			out = append(out, Assignment{Cluster: -1, Candidates: nc})
			continue
		}
		win := int(bs.cids[bestSlot])
		cl := st.view.Clusters[win]
		out = append(out, Assignment{
			Cluster:    win,
			Score:      bestScore,
			Density:    cl.Density,
			Infective:  bestScore-cl.Density > e.tol,
			Candidates: nc,
		})
	}
	st.oracle.AddComputed(scanned)
	e.met.scanAnchor.Add(anchorPruned)
	e.met.scanExact.Add(exactScans)
	e.met.noise.Add(noise)
	return out
}
