package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 || p.Parallel() {
		t.Fatalf("nil pool: workers=%d parallel=%v", p.Workers(), p.Parallel())
	}
	if New(0) != nil || New(1) != nil {
		t.Fatal("New(0)/New(1) must be the serial (nil) pool")
	}
	if New(4).Workers() != 4 {
		t.Fatalf("New(4).Workers() = %d", New(4).Workers())
	}
	if w := New(-1).Workers(); w != runtime.GOMAXPROCS(0) && w != 1 {
		// GOMAXPROCS(0) == 1 yields the nil pool, whose width is 1.
		t.Fatalf("New(-1).Workers() = %d, want GOMAXPROCS", w)
	}
}

// A serial pool, or one item on any pool, runs inline: the items in
// ascending order, as worker 0.
func TestEachInline(t *testing.T) {
	for _, tc := range []struct {
		pool *Pool
		n    int
	}{{nil, 5}, {New(8), 1}} {
		next := 0
		tc.pool.Each(tc.n, func(w, i int) {
			if w != 0 || i != next {
				t.Fatalf("workers=%d n=%d: item %d ran as worker %d; want item %d as worker 0", tc.pool.Workers(), tc.n, i, w, next)
			}
			next++
		})
		if next != tc.n {
			t.Fatalf("workers=%d n=%d: %d items ran", tc.pool.Workers(), tc.n, next)
		}
	}
}

// Chunk boundaries must be a pure function of (n, grain): every index covered
// exactly once, chunks contiguous, identical for serial and parallel pools.
func TestForChunksCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 1000} {
		for _, grain := range []int{1, 7, 64, 2048} {
			for _, pool := range []*Pool{nil, New(3), New(16)} {
				hits := make([]int32, n)
				var calls atomic.Int32
				pool.ForChunks(n, grain, func(chunk, lo, hi int) {
					calls.Add(1)
					if lo != chunk*grain {
						t.Fatalf("chunk %d starts at %d, want %d", chunk, lo, chunk*grain)
					}
					if hi-lo > grain || hi > n {
						t.Fatalf("chunk %d = [%d,%d) exceeds grain %d / n %d", chunk, lo, hi, grain, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d grain=%d workers=%d: index %d visited %d times", n, grain, pool.Workers(), i, h)
					}
				}
				if want := NumChunks(n, grain); int(calls.Load()) != want {
					t.Fatalf("n=%d grain=%d: %d chunk calls, want %d", n, grain, calls.Load(), want)
				}
			}
		}
	}
}

// A chunk-owned partial reduction merged in ascending chunk order must give
// bit-identical sums for serial and parallel pools (the determinism rule the
// detection layers rely on).
func TestChunkOrderReductionDeterministic(t *testing.T) {
	n, grain := 10000, 256
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func(p *Pool) float64 {
		parts := make([]float64, NumChunks(n, grain))
		p.ForChunks(n, grain, func(chunk, lo, hi int) {
			var s float64
			for _, v := range xs[lo:hi] {
				s += v
			}
			parts[chunk] = s
		})
		var total float64
		for _, s := range parts {
			total += s
		}
		return total
	}
	serial := sum(nil)
	for _, w := range []int{2, 4, 8} {
		if got := sum(New(w)); got != serial {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, serial)
		}
	}
}

func TestForChunksEmptyAndDegenerateGrain(t *testing.T) {
	called := false
	New(4).ForChunks(0, 10, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("n=0 must not invoke fn")
	}
	var count atomic.Int32
	New(4).ForChunks(5, 0, func(_, lo, hi int) {
		if hi != lo+1 {
			t.Errorf("grain 0 should degrade to 1, got [%d,%d)", lo, hi)
		}
		count.Add(1)
	})
	if count.Load() != 5 {
		t.Fatalf("grain 0 over n=5: %d calls, want 5", count.Load())
	}
}

// Each visits every item once and returns after the last call finished,
// and a worker index is never held by two goroutines at a time, so fn may
// index per-worker scratch by it.
func TestEachWorkerOwnership(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		for _, pool := range []*Pool{nil, New(2), New(8)} {
			hits := make([]int32, n)
			busy := make([]atomic.Bool, pool.Workers())
			pool.Each(n, func(w, i int) {
				if w < 0 || w >= pool.Workers() {
					t.Errorf("worker %d outside [0,%d)", w, pool.Workers())
					return
				}
				if busy[w].Swap(true) {
					t.Errorf("worker %d ran two items at once", w)
				}
				runtime.Gosched()
				busy[w].Store(false)
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: item %d visited %d times", n, pool.Workers(), i, h)
				}
			}
		}
	}
}

// Every item writes only its own slot of a shared slice, as PALID's map and
// the sharded router do: the slice comes out the same at any width, also at
// widths beyond the item count.
func TestEachSlotIndexed(t *testing.T) {
	const n = 37
	for _, pool := range []*Pool{nil, New(2), New(4), New(8), New(64)} {
		out := make([]int, n)
		pool.Each(n, func(_, i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", pool.Workers(), i, v, i*i)
			}
		}
	}
}

// Zero items: Each calls nothing and returns, on a serial and a parallel
// pool.
func TestEachEmpty(t *testing.T) {
	for _, pool := range []*Pool{nil, New(4)} {
		calls := 0
		pool.Each(0, func(_, _ int) { calls++ })
		if calls != 0 {
			t.Fatalf("workers=%d: fn called %d times for n=0", pool.Workers(), calls)
		}
	}
}
