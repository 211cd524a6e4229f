// This file is the batched Assign form: one snapshot load for a whole batch
// of queries, candidate clusters resolved from the generation's lazy
// bucket→cluster summary (one hash + one flat-hash lookup per LSH table — no
// per-id enumeration), and the single form's walk: every candidate cluster
// in first-seen order, scored exactly over its packed member rows
// (affinity.ScorePacked — the same kernel, rows and summation order as the
// single form's ColumnPoint plus weighted sum, fused into one streaming
// pass), the first strict maximum winning.
//
// Winners and scores are bit-identical to N sequential Assign calls: both
// forms see the same candidate clusters in the same order and score each
// with the same arithmetic. The one deliberate difference is the
// Candidates diagnostic: the batch form never materializes per-point
// candidates, so it reports candidate CLUSTERS, where the single form
// reports deduplicated candidate points.
//
// The batch form never touches the writer and allocates nothing at steady
// state: it runs on the single form's pooled per-state scratch.

package engine

import (
	"fmt"
	"math"

	"alid/internal/obs"
	"alid/internal/vec"
)

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
	sc := st.pool.Get().(*scratch)
	out = e.assignBatch(st, sc, qs, out)
	st.pool.Put(sc)
	e.met.batchPoints.Observe(int64(len(qs)))
	e.met.assignBatch.ObserveSince(start)
	return out, nClusters, nil
}

// assignBatch runs the batched walk over pre-validated queries.
func (e *Engine) assignBatch(st *state, sc *scratch, qs [][]float64, out []Assignment) []Assignment {
	bi := st.batchIdx()
	// Tallies flushed with one atomic add per batch (not per query) to keep
	// the hot loop free of shared-cacheline traffic.
	var scanned, exactScans, noise int64
	gen := sc.reserve(len(qs))
	for _, q := range qs {
		// The summary's per-bucket cluster lists are in the single form's
		// first-seen order (see batchindex.go), and deduplicating across
		// tables keeps it.
		st.view.Index.BucketKeys(q, sc.sig, sc.keys)
		sc.cids = sc.cids[:0]
		for t, key := range sc.keys {
			for _, ci := range bi.sum[t].lookup(key) {
				if sc.cmark[ci] == gen {
					continue
				}
				sc.cmark[ci] = gen
				sc.cids = append(sc.cids, ci)
			}
		}
		gen++
		e.met.candClusters.Observe(int64(len(sc.cids)))

		qn := vec.Dot(q, q)
		best, bestScore := -1, math.Inf(-1)
		for _, ci := range sc.cids {
			lo, hi := int(bi.pkOff[ci]), int(bi.pkOff[ci+1])
			s := st.oracle.ScorePacked(q, qn, bi.pk[lo*st.dim:hi*st.dim], bi.pkn[lo:hi], st.view.Clusters[ci].Weights, sc.colFor(hi-lo))
			if s > bestScore {
				best, bestScore = int(ci), s
			}
			scanned += int64(hi - lo)
		}
		exactScans += int64(len(sc.cids))
		if best < 0 {
			noise++
		}
		out = append(out, e.answer(st, best, bestScore, len(sc.cids)))
	}
	st.oracle.AddComputed(scanned)
	e.met.scanExact.Add(exactScans)
	e.met.noise.Add(noise)
	return out
}
