// The per-generation candidate-retrieval structure behind the batched Assign
// form. It is DERIVED state, built lazily by the first batch against a
// published generation (never at publish time, so commit latency stays
// O(batch)), immutable once built, and dropped with its state:
//
//   - sum: per LSH table, bucket key → the distinct candidate clusters of the
//     bucket's live members, in first-seen (ascending id) order. A batched
//     query resolves its candidate clusters with one hash + one lookup per
//     table instead of enumerating and deduplicating bucket members. The
//     per-query cluster sequence this produces is exactly the single-point
//     path's first-seen label order: id-level dedup never removes the first
//     occurrence of a label, so skipping it cannot reorder labels.
//
//   - pk/pkn/pkOff: every cluster's member rows packed contiguously, so the
//     exact scan streams sequential memory instead of gathering rows.
package engine

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

	d := st.dim
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
	return bi
}
