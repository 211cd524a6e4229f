package index

// Components returns the connected components of ix's co-bucketing graph,
// where two ids are adjacent when they share a live bucket in some table.
// CIVS retrieves only ids co-bucketed with the current support, so a
// detection seeded at a live id never reads or consumes an id outside that
// id's component: components are independent peeling subproblems.
//
// Each component lists its ids in ascending order, and components are
// ordered by their smallest id. Ids that share no live bucket with another
// id, evicted ids among them, are singletons. The slices share one backing
// array of N ids. Cost: one union-find pass over VisitLiveBuckets, O(N·l)
// for l tables.
func Components(ix Index) [][]int32 {
	n := ix.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	// Linking the larger root under the smaller keeps every root the
	// smallest id of its component.
	ix.VisitLiveBuckets(func(_ int, _ uint64, ids []int32) {
		a := find(ids[0])
		for _, id := range ids[1:] {
			switch b := find(id); {
			case b > a:
				parent[b] = a
			case b < a:
				parent[a] = b
				a = b
			}
		}
	})
	size := make([]int32, n)
	for i := range parent {
		parent[i] = find(int32(i))
		size[parent[i]]++
	}
	// A root precedes its members, so one ascending pass lays every
	// component out contiguously, its ids ascending.
	ids := make([]int32, n)
	at := make([]int32, n) // root → its component's position in comps
	var comps [][]int32
	off := int32(0)
	for i, r := range parent {
		if r == int32(i) {
			at[i] = int32(len(comps))
			comps = append(comps, ids[off:off:off+size[i]])
			off += size[i]
		}
		comps[at[r]] = append(comps[at[r]], int32(i))
	}
	return comps
}
