package index_test

// Backend conformance suite: the executable form of the index.Index
// contract. Every backend must pass every test — add new backends to
// backends() and nothing else. The suite checks the four contract pillars
// the pipeline's bit-identical invariants rest on:
//
//   - reference-model queries: QueryInto and CandidatesByIDsInto answer
//     exactly what a brute-force co-bucketing model over BucketKeys predicts,
//     the multi-id read in the order of a per-id loop over that model;
//   - share-and-seal publishing: a published snapshot is immune to later
//     Append / Evict on the live index;
//   - tombstones: after Evict, every read path answers as if only the
//     survivors were ever indexed;
//   - dump/restore and determinism: chunked dump → restore is answer-
//     identical in candidate ORDER, and the whole build+query sequence is
//     bit-identical at GOMAXPROCS 1 and GOMAXPROCS NumCPU.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/minhash"
)

// conformanceBackend adapts one concrete backend to the table-driven suite:
// a generator producing inputs natural to the backend (dense vectors or
// MinHash signatures of random element sets) plus build and dump-restore
// hooks. The suite itself touches only index.Index.
type conformanceBackend struct {
	name  string
	gen   func(seed int64, n int) [][]float64
	build func(pts [][]float64) (index.Index, error)
	// restore round-trips through the backend's chunked dump; live == nil
	// uses the plain constructor, otherwise the liveness-aware one.
	restore func(ix index.Index, n int, live func(int) bool) (index.Index, error)
}

var (
	confLSHCfg = lsh.Config{Projections: 6, Tables: 5, R: 2.5, Seed: 11}
	confMHCfg  = minhash.Config{Bands: 8, Rows: 3, Seed: 11}
)

func backends() []conformanceBackend {
	return []conformanceBackend{
		{
			name: index.BackendLSH,
			gen: func(seed int64, n int) [][]float64 {
				rng := rand.New(rand.NewSource(seed))
				pts := make([][]float64, n)
				for i := range pts {
					p := make([]float64, 6)
					for j := range p {
						p[j] = rng.NormFloat64() * 3
					}
					pts[i] = p
				}
				return pts
			},
			build: func(pts [][]float64) (index.Index, error) { return lsh.Build(pts, confLSHCfg) },
			restore: func(ix index.Index, n int, live func(int) bool) (index.Index, error) {
				cfg, dim, tables := ix.(*lsh.Index).DumpChunks()
				if live == nil {
					return lsh.FromDumpChunks(cfg, dim, tables)
				}
				return lsh.FromDumpChunksLive(cfg, dim, n, tables, live)
			},
		},
		{
			name: index.BackendMinHash,
			gen: func(seed int64, n int) [][]float64 {
				rng := rand.New(rand.NewSource(seed))
				sets := make([][]string, n)
				for i := range sets {
					// Draw from a few overlapping pools so bands collide often
					// enough to exercise multi-member buckets.
					m := 3 + rng.Intn(8)
					base := rng.Intn(4) * 50
					s := make([]string, m)
					for j := range s {
						s[j] = fmt.Sprintf("e%d", base+rng.Intn(60))
					}
					sets[i] = s
				}
				sigs, err := minhash.Signatures(sets, confMHCfg)
				if err != nil {
					panic(err)
				}
				return sigs
			},
			build: func(pts [][]float64) (index.Index, error) {
				ix, err := minhash.New(confMHCfg)
				if err != nil {
					return nil, err
				}
				_, err = ix.Append(pts)
				return ix, err
			},
			restore: func(ix index.Index, n int, live func(int) bool) (index.Index, error) {
				mh := ix.(*minhash.Index)
				if live == nil {
					return minhash.FromKeyChunks(mh.Config(), mh.KeyChunks())
				}
				return minhash.FromKeyChunksLive(mh.Config(), n, mh.KeyChunks(), live)
			},
		},
	}
}

// refModel is the brute-force co-bucketing oracle: per-table key → member
// ids, derived purely from BucketKeys, against which the query paths are
// judged.
type refModel struct {
	keys [][]uint64         // [id][table]
	byTK []map[uint64][]int // [table][key] → ascending ids
	live []bool
}

func buildRef(ix index.Index, pts [][]float64) *refModel {
	nt := ix.Tables()
	m := &refModel{
		keys: make([][]uint64, len(pts)),
		byTK: make([]map[uint64][]int, nt),
		live: make([]bool, len(pts)),
	}
	for t := range m.byTK {
		m.byTK[t] = map[uint64][]int{}
	}
	sig := make([]int64, ix.SigLen())
	for id, p := range pts {
		ks := make([]uint64, nt)
		ix.BucketKeys(p, sig, ks)
		m.keys[id] = ks
		m.live[id] = true
		for t, k := range ks {
			m.byTK[t][k] = append(m.byTK[t][k], id)
		}
	}
	return m
}

func (m *refModel) evict(ids []int) {
	for _, id := range ids {
		m.live[id] = false
	}
}

// candidates returns the live ids co-bucketed with v (self included when v
// is an indexed live point), ascending.
func (m *refModel) candidates(ix index.Index, v []float64, excludeSelf int) []int32 {
	sig := make([]int64, ix.SigLen())
	ks := make([]uint64, ix.Tables())
	ix.BucketKeys(v, sig, ks)
	seen := map[int]bool{}
	for t, k := range ks {
		for _, id := range m.byTK[t][k] {
			if m.live[id] && id != excludeSelf {
				seen[id] = true
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for id := range seen {
		out = append(out, int32(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedCopy(ids []int32) []int32 {
	c := append([]int32(nil), ids...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func wantSameIDs(t *testing.T, want, got []int32, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d ids, want %d (got %v want %v)", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: position %d: id %d, want %d", label, i, got[i], want[i])
		}
	}
}

// queryAll runs the allocation-free query path over probes and returns the
// per-probe candidate lists in their native (deterministic) order.
func queryAll(ix index.Index, probes [][]float64) [][]int32 {
	sig := make([]int64, ix.SigLen())
	mark := make([]uint32, ix.N())
	var gen uint32
	out := make([][]int32, len(probes))
	var dst []int32
	for i, p := range probes {
		gen++
		dst = ix.QueryInto(p, sig, dst[:0], mark, gen)
		out[i] = append([]int32(nil), dst...)
	}
	return out
}

// Shape accessors and every query path against the brute-force oracle.
func TestConformanceQueryPathsMatchReference(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			pts := b.gen(1, 400)
			ix, err := b.build(pts)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Backend() != b.name {
				t.Fatalf("Backend() = %q, want %q", ix.Backend(), b.name)
			}
			if ix.N() != len(pts) || liveCount(ix) != len(pts) {
				t.Fatalf("N %d Live %d, want %d", ix.N(), liveCount(ix), len(pts))
			}
			if ix.Dim() != len(pts[0]) {
				t.Fatalf("Dim %d, want %d", ix.Dim(), len(pts[0]))
			}
			if ix.SigLen() <= 0 || ix.Tables() <= 0 {
				t.Fatalf("SigLen %d Tables %d", ix.SigLen(), ix.Tables())
			}
			if st := ix.Stats(); st.Tables != ix.Tables() {
				t.Fatalf("Stats.Tables %d, want %d", st.Tables, ix.Tables())
			}

			ref := buildRef(ix, pts)
			probes := append(pts[:50:50], b.gen(2, 20)...)
			into := queryAll(ix, probes)
			for i, p := range probes {
				wantSameIDs(t, ref.candidates(ix, p, -1), sortedCopy(into[i]), "QueryInto")
			}
			mark := make([]uint32, ix.N())
			var gen uint32
			var dst []int32
			for id := 0; id < len(pts); id += 7 {
				gen++
				dst = ix.CandidatesByIDsInto([]int{id}, dst[:0], mark, gen, nil)
				wantSameIDs(t, ref.candidates(ix, pts[id], id), sortedCopy(dst), "CandidatesByIDsInto")
			}

			// VisitLiveBuckets enumerates exactly the oracle's buckets with
			// ascending member ids; Buckets(0) agrees with it.
			visited := 0
			ix.VisitLiveBuckets(func(table int, key uint64, ids []int32) {
				visited++
				want := make([]int32, 0, len(ids))
				for _, id := range ref.byTK[table][key] {
					want = append(want, int32(id))
				}
				wantSameIDs(t, want, ids, "VisitLiveBuckets")
			})
			nonEmpty := 0
			for t2 := range ref.byTK {
				nonEmpty += len(ref.byTK[t2])
			}
			if visited != nonEmpty {
				t.Fatalf("visited %d buckets, oracle has %d", visited, nonEmpty)
			}
		})
	}
}

// Share-and-seal: a published snapshot keeps answering with the state at
// publish time, whatever Append/Evict does to the live index afterwards.
func TestConformancePublishIsolation(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			pts := b.gen(3, 300)
			ix, err := b.build(pts[:200])
			if err != nil {
				t.Fatal(err)
			}
			snap := ix.PublishIndex()
			if snap.Backend() != b.name || snap.N() != 200 {
				t.Fatalf("snapshot backend %q n %d", snap.Backend(), snap.N())
			}
			probes := pts[:60]
			before := queryAll(snap, probes)

			if first, err := ix.Append(pts[200:]); err != nil || first != 200 {
				t.Fatalf("Append: first %d err %v", first, err)
			}
			if got := ix.Evict([]int{0, 5, 10, 250}); got != 4 {
				t.Fatalf("Evict counted %d", got)
			}
			ix.PublishIndex()

			if snap.N() != 200 || liveCount(snap) != 200 {
				t.Fatalf("snapshot mutated: N %d Live %d", snap.N(), liveCount(snap))
			}
			after := queryAll(snap, probes)
			for i := range before {
				wantSameIDs(t, before[i], after[i], "snapshot QueryInto after live mutation")
			}
			if ix.N() != 300 || liveCount(ix) != 296 {
				t.Fatalf("live index N %d Live %d", ix.N(), liveCount(ix))
			}
		})
	}
}

// Tombstones: after Evict, every read path answers exactly what the oracle
// predicts over the survivors, and dead ids never surface.
func TestConformanceTombstones(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			pts := b.gen(5, 450)
			ix, err := b.build(pts)
			if err != nil {
				t.Fatal(err)
			}
			ref := buildRef(ix, pts)
			var dead []int
			for id := 0; id < len(pts); id += 3 {
				dead = append(dead, id)
			}
			if got := ix.Evict(dead); got != len(dead) {
				t.Fatalf("Evict counted %d, want %d", got, len(dead))
			}
			// Re-evicting is idempotent.
			if got := ix.Evict(dead[:10]); got != 0 {
				t.Fatalf("re-Evict counted %d, want 0", got)
			}
			ref.evict(dead)
			if liveCount(ix) != len(pts)-len(dead) {
				t.Fatalf("Live %d, want %d", liveCount(ix), len(pts)-len(dead))
			}
			for i, got := range queryAll(ix, pts[:80]) {
				wantSameIDs(t, ref.candidates(ix, pts[i], -1), sortedCopy(got), "evicted QueryInto")
			}
			mark := make([]uint32, ix.N())
			for id := 1; id < len(pts); id += 9 {
				if id%3 == 0 {
					continue
				}
				got := ix.CandidatesByIDsInto([]int{id}, nil, mark, uint32(id), nil)
				wantSameIDs(t, ref.candidates(ix, pts[id], id), sortedCopy(got), "evicted CandidatesByIDsInto")
			}
			ix.VisitLiveBuckets(func(table int, key uint64, ids []int32) {
				for _, id := range ids {
					if id%3 == 0 {
						t.Fatalf("dead id %d in table %d bucket %x", id, table, key)
					}
				}
			})
			for _, bucket := range ix.Buckets(1) {
				for _, id := range bucket {
					if id%3 == 0 {
						t.Fatalf("dead id %d in Buckets", id)
					}
				}
			}
		})
	}
}

// Dump → restore answers identically IN ORDER, with and without tombstones.
func TestConformanceDumpRestore(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			pts := b.gen(7, 350)
			ix, err := b.build(pts)
			if err != nil {
				t.Fatal(err)
			}
			probes := pts[:70]

			plain, err := b.restore(ix, len(pts), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, got := queryAll(ix, probes), queryAll(plain, probes)
			for i := range want {
				wantSameIDs(t, want[i], got[i], "restored QueryInto")
			}

			var dead []int
			for id := 0; id < len(pts); id += 4 {
				dead = append(dead, id)
			}
			ix.Evict(dead)
			restored, err := b.restore(ix, len(pts), func(id int) bool { return id%4 != 0 })
			if err != nil {
				t.Fatal(err)
			}
			if liveCount(restored) != liveCount(ix) {
				t.Fatalf("restored Live %d, want %d", liveCount(restored), liveCount(ix))
			}
			want, got = queryAll(ix, probes), queryAll(restored, probes)
			for i := range want {
				wantSameIDs(t, want[i], got[i], "liveness-restored QueryInto")
			}
		})
	}
}

// The full build / append / publish / evict / query sequence is bit-identical
// at GOMAXPROCS 1 and GOMAXPROCS NumCPU — the standing invariant every
// backend must uphold for the pipeline's determinism guarantees to compose.
func TestConformanceDeterminismAcrossGOMAXPROCS(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			run := func() [][]int32 {
				pts := b.gen(9, 320)
				ix, err := b.build(pts[:200])
				if err != nil {
					t.Fatal(err)
				}
				ix.PublishIndex()
				if _, err := ix.Append(pts[200:]); err != nil {
					t.Fatal(err)
				}
				ix.Evict([]int{2, 3, 50, 201})
				snap := ix.PublishIndex()
				return queryAll(snap, pts[:80])
			}
			prev := runtime.GOMAXPROCS(1)
			serial := run()
			runtime.GOMAXPROCS(runtime.NumCPU())
			parallel := run()
			runtime.GOMAXPROCS(prev)
			for i := range serial {
				wantSameIDs(t, serial[i], parallel[i], "GOMAXPROCS determinism")
			}
		})
	}
}

// Components partitions the ids into the connected components of the
// co-bucketing graph, before and after Evict. The candidates of a live id
// never leave its component, the property DetectAll's concurrent peel rests
// on, so a read of a whole component returns nothing. A walk that reads the
// candidates of each new frontier from a component's first id reaches the
// whole component, so the partition is no coarser than the graph.
func TestConformanceComponents(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			// Every third point is repeated, so components of two or more
			// ids exist whatever the backend's collision rate.
			var pts [][]float64
			for i, p := range b.gen(9, 300) {
				pts = append(pts, p)
				if i%3 == 0 {
					pts = append(pts, p)
				}
			}
			ix, err := b.build(pts)
			if err != nil {
				t.Fatal(err)
			}
			checkComponents(t, ix, func(int) bool { return true })
			if got := ix.Evict(evictEveryThird(len(pts))); got == 0 {
				t.Fatal("Evict evicted nothing")
			}
			checkComponents(t, ix, func(id int) bool { return id%3 != 0 })
		})
	}
}

func evictEveryThird(n int) []int {
	var dead []int
	for id := 0; id < n; id += 3 {
		dead = append(dead, id)
	}
	return dead
}

func checkComponents(t *testing.T, ix index.Index, live func(int) bool) {
	t.Helper()
	comps := index.Components(ix)
	comp := make([]int, ix.N())
	for i := range comp {
		comp[i] = -1
	}
	multi := 0
	for c, ids := range comps {
		if len(ids) == 0 {
			t.Fatalf("component %d is empty", c)
		}
		if c > 0 && ids[0] <= comps[c-1][0] {
			t.Fatalf("component %d starts at %d, after component %d at %d", c, ids[0], c-1, comps[c-1][0])
		}
		for k, id := range ids {
			if k > 0 && id <= ids[k-1] {
				t.Fatalf("component %d not ascending at %d", c, k)
			}
			if comp[id] != -1 {
				t.Fatalf("id %d in components %d and %d", id, comp[id], c)
			}
			comp[id] = c
		}
		if len(ids) > 1 {
			multi++
		}
	}
	for id, c := range comp {
		if c == -1 {
			t.Fatalf("id %d in no component", id)
		}
	}
	if multi < 2 || multi == len(comps) {
		t.Fatalf("%d components, %d of them with ≥ 2 ids: the check needs several of each kind", len(comps), multi)
	}
	mark := make([]uint32, ix.N())
	gen := uint32(ix.N())
	var buckets index.BucketSet
	for i := range comp {
		if !live(i) {
			if len(comps[comp[i]]) != 1 {
				t.Fatalf("evicted id %d shares a component", i)
			}
			continue
		}
		for _, j := range ix.CandidatesByIDsInto([]int{i}, nil, mark, uint32(i+1), nil) {
			if comp[j] != comp[i] {
				t.Fatalf("candidate %d of id %d lies in component %d, not %d", j, i, comp[j], comp[i])
			}
		}
	}
	for _, ids := range comps {
		if !live(int(ids[0])) {
			continue
		}
		whole := make([]int, len(ids))
		for k, id := range ids {
			whole[k] = int(id)
		}
		gen++
		if got := ix.CandidatesByIDsInto(whole, nil, mark, gen, &buckets); len(got) != 0 {
			t.Fatalf("component of %d: a read of all its ids returns %v", ids[0], got)
		}
		reached := map[int]bool{whole[0]: true}
		for frontier := whole[:1]; len(frontier) > 0; {
			gen++
			var next []int
			for _, j := range ix.CandidatesByIDsInto(frontier, nil, mark, gen, &buckets) {
				if !reached[int(j)] {
					reached[int(j)] = true
					next = append(next, int(j))
				}
			}
			frontier = next
		}
		if len(reached) != len(ids) {
			t.Fatalf("component of %d has %d ids, its walk reaches %d", ids[0], len(ids), len(reached))
		}
	}
}

// perIDLoop is the candidate read CIVS made before the multi-id read, over
// the brute-force model: each query id in turn, its tables in order, each
// bucket's live members ascending, every id at its first sighting and never
// the query itself. The query ids are dropped from the result afterwards.
func (m *refModel) perIDLoop(queries []int) []int32 {
	seen := map[int]bool{}
	var out []int32
	for _, q := range queries {
		for t, k := range m.keys[q] {
			for _, id := range m.byTK[t][k] {
				if m.live[id] && id != q && !seen[id] {
					seen[id] = true
					out = append(out, int32(id))
				}
			}
		}
	}
	isQuery := map[int32]bool{}
	for _, q := range queries {
		isQuery[int32(q)] = true
	}
	kept := out[:0]
	for _, id := range out {
		if !isQuery[id] {
			kept = append(kept, id)
		}
	}
	return kept
}

// The multi-id read, before and after Evict, on query sets of every shape:
// one id, random live ids, and whole or partial components (whose queries
// share buckets, so most (table, bucket) pairs repeat). Against the
// brute-force model it returns the union of the queries' candidates, no
// query id, each id once, in the per-id loop's order. Every read reuses one
// mark array and one bucket set under a fresh marker value, so a stale
// entry of an earlier read would show as a missing bucket.
func TestConformanceCandidatesByIDs(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			var pts [][]float64
			for i, p := range b.gen(13, 360) {
				pts = append(pts, p)
				if i%4 == 0 {
					pts = append(pts, p)
				}
			}
			ix, err := b.build(pts)
			if err != nil {
				t.Fatal(err)
			}
			ref := buildRef(ix, pts)
			mark := make([]uint32, ix.N())
			var gen uint32
			var buckets index.BucketSet
			var dst []int32
			rng := rand.New(rand.NewSource(5))
			check := func(stage string) {
				t.Helper()
				var sets [][]int
				var liveIDs []int
				for id, ok := range ref.live {
					if ok {
						liveIDs = append(liveIDs, id)
					}
				}
				for i := 0; i < 20; i++ {
					sets = append(sets, []int{liveIDs[rng.Intn(len(liveIDs))]})
					k := 2 + rng.Intn(40)
					set := make([]int, 0, k)
					for _, j := range rng.Perm(len(liveIDs))[:k] {
						set = append(set, liveIDs[j])
					}
					sets = append(sets, set)
				}
				// A live id with part of its candidates, shuffled, as a CIVS
				// support is; and whole components, whose duplicate points
				// share every bucket.
				shared := 0
				for i := 0; i < 40; i++ {
					q := liveIDs[rng.Intn(len(liveIDs))]
					set := []int{q}
					for _, id := range ref.candidates(ix, pts[q], q) {
						if rng.Intn(3) > 0 {
							set = append(set, int(id))
						}
					}
					rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
					if len(set) > 1 {
						sets = append(sets, set)
						shared++
					}
				}
				for _, comp := range index.Components(ix) {
					if len(comp) > 1 && ref.live[comp[0]] {
						set := make([]int, len(comp))
						for k, id := range comp {
							set[k] = int(id)
						}
						sets = append(sets, set)
						shared++
					}
				}
				if shared < 10 {
					t.Fatalf("%s: %d query sets sharing buckets, want many", stage, shared)
				}
				for _, set := range sets {
					gen++
					dst = ix.CandidatesByIDsInto(set, dst[:0], mark, gen, &buckets)
					label := fmt.Sprintf("%s read of %d ids", stage, len(set))
					wantSameIDs(t, ref.perIDLoop(set), dst, label)
					isQuery := map[int32]bool{}
					for _, q := range set {
						isQuery[int32(q)] = true
					}
					union := map[int32]bool{}
					for _, q := range set {
						for _, id := range ref.candidates(ix, pts[q], q) {
							if !isQuery[id] {
								union[id] = true
							}
						}
					}
					once := map[int32]bool{}
					for _, id := range dst {
						if isQuery[id] {
							t.Fatalf("%s: returns query id %d", label, id)
						}
						if once[id] {
							t.Fatalf("%s: returns id %d twice", label, id)
						}
						once[id] = true
					}
					if len(once) != len(union) {
						t.Fatalf("%s: %d ids, the model has %d", label, len(once), len(union))
					}
				}
			}
			check("built")
			dead := evictEveryThird(len(pts))
			if got := ix.Evict(dead); got == 0 {
				t.Fatal("Evict evicted nothing")
			}
			ref.evict(dead)
			check("evicted")
		})
	}
}

// liveCount counts the ids the read paths still return: every live id sits
// in exactly one bucket of table 0.
func liveCount(ix index.Index) int {
	n := 0
	ix.VisitLiveBuckets(func(table int, _ uint64, ids []int32) {
		if table == 0 {
			n += len(ids)
		}
	})
	return n
}
