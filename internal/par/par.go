// Package par is the repository's one fan-out layer: a small
// chunked-for-range fan-out used by the hot loops inside one DetectFrom
// (CIVS candidate scoring, A_{βα} submatrix fills, LID payoff and immunity
// scans), by DetectAll to peel independent LSH components concurrently, by
// PALID to run its seeds on its executors, and by the sharded serving
// router to send one call to every shard.
//
// Determinism contract. Detection output must be bit-identical to the serial
// path at any GOMAXPROCS and any worker count, so the layer never lets
// scheduling order reach a floating-point result:
//
//   - the iteration range [0,n) is split into FIXED chunks of a caller-chosen
//     grain — chunk boundaries are a pure function of (n, grain), never of
//     the worker count or GOMAXPROCS;
//   - every chunk writes only chunk-owned state (disjoint dst ranges or a
//     per-chunk partial slot), so no result value is ever produced by an
//     atomics-ordered or arrival-ordered reduction;
//   - cross-chunk reductions are performed by the CALLER, serially, in
//     ascending chunk order — the same reduction tree the serial fallback
//     produces, because the fallback runs the identical per-chunk calls.
//
// A Pool carries no goroutines and no mutable state: each Each or ForChunks
// call spawns up to Workers()−1 helpers (the caller participates) and joins
// them before returning. That keeps the pool trivially safe to share — PALID
// executors and the streaming commit path can all hold the same *Pool — and
// leaves nothing to close. Per-call spawn costs ~1µs per helper, which is why
// call sites gate fan-out behind a minimum-work threshold; the gate affects
// only speed, never results.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool describes a fan-out width. The zero value and the nil pool are valid
// and mean "serial"; all methods are nil-safe.
type Pool struct {
	workers int
}

// New returns a pool of the given width. Widths ≤ 1 return nil (serial);
// a negative width means GOMAXPROCS at construction time.
func New(workers int) *Pool {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return nil
	}
	return &Pool{workers: workers}
}

// Workers returns the fan-out width (1 for a nil/serial pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Parallel reports whether the pool fans out at all.
func (p *Pool) Parallel() bool { return p.Workers() > 1 }

// Each calls fn(worker, i) once for every i in [0,n). With a serial pool
// (or n ≤ 1) the calls run in ascending order on the calling goroutine as
// worker 0; with a parallel pool, items are claimed in ascending order from
// an atomic counter by up to Workers() goroutines (the caller included), so
// they start in index order but finish in an unspecified one. worker, in
// [0, Workers()), names the goroutine making the call: fn may keep
// per-worker scratch indexed by it without locking. fn must write only
// item-owned or worker-owned state. Each returns after every call has
// completed. fn must not panic: a panic on a helper goroutine crashes the
// process.
func (p *Pool) Each(n int, fn func(worker, i int)) {
	w := min(p.Workers(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			work(k)
		}()
	}
	work(0) // the caller is worker 0
	wg.Wait()
}

// ForChunks splits [0,n) into ⌈n/grain⌉ fixed chunks — chunk c covers
// [c·grain, min((c+1)·grain, n)) — and calls fn once per chunk through
// Each: in ascending chunk order on the calling goroutine with a serial pool
// (or a single chunk), in an unspecified order with a parallel one. fn must
// therefore write only chunk-owned state; under that contract the memory
// written is identical in both modes, which is what makes the serial and
// parallel paths bit-identical. ForChunks returns after every chunk has
// completed. fn must not panic.
func (p *Pool) ForChunks(n, grain int, fn func(chunk, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	p.Each(NumChunks(n, grain), func(_, c int) {
		lo := c * grain
		fn(c, lo, min(lo+grain, n))
	})
}

// NumChunks returns the chunk count ForChunks would use for (n, grain):
// callers size per-chunk partial-result scratch with it.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return (n + grain - 1) / grain
}
