//go:build !race

package stream

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates inside instrumented calls, and sync.Pool drops
// items at random under it, so allocation counts are only meaningful
// without it.
const raceEnabled = false
