package stream

import (
	"math/rand"
	"runtime"
	"testing"

	"alid/internal/lsh"
)

// The commit path's flat-cost invariants, checked by count: bytes allocated
// and kernel evaluations per commit come out the same on every run and at
// any GOMAXPROCS, where wall time on a shared host cannot resolve the
// bounds. Each test counts the loop of the benchmark it comes from.

// commitCost calls commit until it reports done and returns the bytes
// allocated and kernel evaluations made per call. A stream starts no
// goroutine after its first commit, so the process-wide allocation count
// is the stream's own.
func commitCost(c *Clusterer, commit func() (done bool)) (bytes, evals float64) {
	var before, after runtime.MemStats
	evals0 := c.kernelEvals
	runtime.ReadMemStats(&before)
	calls := 0
	for done := false; !done; {
		done = commit()
		calls++
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(calls),
		float64(c.kernelEvals-evals0) / float64(calls)
}

// A publish copies the matrix and key tails, so the bytes a commit
// allocates depend on n's offset within a key chunk; the sizes below share
// one.
var flatSizes = [2]int{3 * lsh.KeyChunk, 24 * lsh.KeyChunk}

// A commit right after a publish costs the same at 98,304 committed points
// as at 12,288: share-and-seal copies only the tails, and the far-away
// blob it commits makes the same detection work at both sizes.
func TestCommitAfterPublishFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	var bytes, evals [2]float64
	for s, n := range flatSizes {
		c := newPublishStream(t, n)
		rng := rand.New(rand.NewSource(92))
		i := 0
		for ; i < 5; i++ {
			commitAfterPublish(t, c, rng, i)
		}
		bytes[s], evals[s] = commitCost(c, func() bool {
			commitAfterPublish(t, c, rng, i)
			i++
			return i == 25
		})
	}
	t.Logf("bytes/commit %.0f vs %.0f, kernel evaluations/commit %.0f vs %.0f", bytes[0], bytes[1], evals[0], evals[1])
	if r := bytes[1] / bytes[0]; r > 1.2 {
		t.Errorf("n=%d allocates %.0f bytes per commit, %.2f× n=%d's %.0f (want ≤ 1.2×)", flatSizes[1], bytes[1], r, flatSizes[0], bytes[0])
	}
	if evals[0] != evals[1] || evals[0] == 0 {
		t.Errorf("kernel evaluations per commit %.0f at n=%d vs %.0f at n=%d, want equal and non-zero", evals[0], flatSizes[0], evals[1], flatSizes[1])
	}
}

// retentionCost runs the retention loop until ever ids have been minted and
// a key chunk has just filled, then counts one key chunk's worth of
// commits: chunk allocations and releases fall into every window alike.
func retentionCost(t *testing.T, l *retentionLoop, ever int) (bytes, evals float64) {
	perChunk := lsh.KeyChunk / retentionBatch
	for l.c.EverSeenIDs() < ever || l.c.EverSeenIDs()%lsh.KeyChunk != 0 {
		l.commit(t)
	}
	n := 0
	return commitCost(l.c, func() bool {
		l.commit(t)
		n++
		return n == perChunk
	})
}

// Eviction keeps a commit's cost flat in the points ever seen: after 100,000
// points through a 2,000-point window a commit allocates and evaluates
// within 1.3× of what it does after 20,000.
func TestRetentionFlatInPointsSeen(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	l := newRetentionLoop(t, 93, 0)
	b20, e20 := retentionCost(t, l, 20000)
	if l.c.Live() != retentionWindow {
		t.Fatalf("steady state not reached: live %d, want %d", l.c.Live(), retentionWindow)
	}
	b100, e100 := retentionCost(t, l, 100000)
	t.Logf("bytes/commit %.0f vs %.0f, kernel evaluations/commit %.0f vs %.0f", b20, b100, e20, e100)
	if r := b100 / b20; r > 1.3 {
		t.Errorf("after 100,000 points a commit allocates %.0f bytes, %.2f× the %.0f after 20,000 (want ≤ 1.3×)", b100, r, b20)
	}
	if r := e100 / e20; r > 1.3 || e20 == 0 {
		t.Errorf("after 100,000 points a commit makes %.0f kernel evaluations, %.2f× the %.0f after 20,000 (want ≤ 1.3×)", e100, r, e20)
	}
}

// Generation compaction keeps the committed id space within two windows and
// one batch (the loop checks it on every commit) and the cost of a whole
// compaction cycle, renumbering included, flat in the ids ever minted. Each
// counted window ends at a compaction, so the generation is past zero.
func TestGenerationsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	l := newRetentionLoop(t, 94, 0.5)
	// cycle counts the commits after one compaction up to and including the
	// next, once ever ids have been minted.
	cycle := func(ever int) (bytes, evals float64) {
		for l.c.EverSeenIDs() < ever {
			l.commit(t)
		}
		for g := l.c.Generation(); l.c.Generation() == g; {
			l.commit(t)
		}
		g := l.c.Generation()
		return commitCost(l.c, func() bool {
			l.commit(t)
			return l.c.Generation() != g
		})
	}
	b20, e20 := cycle(20000)
	b100, e100 := cycle(100000)
	t.Logf("generation %d, bytes/commit %.0f vs %.0f, kernel evaluations/commit %.0f vs %.0f", l.c.Generation(), b20, b100, e20, e100)
	if r := b100 / b20; r > 1.3 {
		t.Errorf("after 100,000 ids a commit allocates %.0f bytes, %.2f× the %.0f after 20,000 (want ≤ 1.3×)", b100, r, b20)
	}
	if r := e100 / e20; r > 1.3 || e20 == 0 {
		t.Errorf("after 100,000 ids a commit makes %.0f kernel evaluations, %.2f× the %.0f after 20,000 (want ≤ 1.3×)", e100, r, e20)
	}
}
