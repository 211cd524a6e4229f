//go:build noobs

package obs

import "time"

// The disabled build: every mutator is an empty inlinable body and Now
// skips the clock read, so instrumented call sites cost nothing. Renderers
// and readers still compile (everything reports zero).

func (c *Counter) Add(n int64) {}

func (c *Counter) Inc() {}

func (h *Histogram) Observe(v int64) {}

func (h *Histogram) ObserveSince(start time.Time) {}

func Now() time.Time { return time.Time{} }
