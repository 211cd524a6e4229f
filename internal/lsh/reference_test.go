package lsh

import "fmt"

// Reference paths for the tests. Query is an independent, map-deduplicated
// form of QueryInto; dumpFlat materializes the flat inverted lists of the
// legacy v1 snapshot layout and splits them as its decoder does.

// Query returns the ids of all live points sharing a bucket with v in any
// table, deduplicated, excluding nothing else. The result ordering is
// unspecified. Evicted ids never appear.
func (i *Index) Query(v []float64) []int32 {
	if len(v) != i.dim {
		panic(fmt.Sprintf("lsh: query dimension %d, want %d", len(v), i.dim))
	}
	seen := make(map[int32]struct{})
	sig := make([]int64, i.cfg.Projections)
	var out []int32
	for t := range i.tables {
		tb := &i.tables[t]
		tb.signature(v, i.cfg.R, sig)
		key := fold(sig)
		for _, seg := range tb.allSegments() {
			for _, id := range seg.buckets[key] {
				if !i.alive(id) {
					continue
				}
				if _, ok := seen[id]; !ok {
					seen[id] = struct{}{}
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// dumpFlat exports the index state the way the v1 decoder hands it to
// FromDumpChunks: each inverted list materialized flat, then split by
// ChunkKeys. Proj and Off alias index storage (read-only).
func (i *Index) dumpFlat() (Config, int, []TableChunks) {
	out := make([]TableChunks, len(i.tables))
	for t := range i.tables {
		tb := &i.tables[t]
		out[t] = TableChunks{Proj: tb.proj, Off: tb.off, KeyChunks: ChunkKeys(tb.keys.flat())}
	}
	return i.cfg, i.dim, out
}

// allLive is the liveness of an index that never evicted.
func allLive(int) bool { return true }

// flat materializes the keys into a fresh slice (compat/diagnostic path).
func (v *keyvec) flat() []uint64 {
	out := make([]uint64, 0, v.n)
	for _, c := range v.chunks {
		out = append(out, c...)
	}
	return out
}
