//go:build !noobs

package obs

import "time"

// This file holds every mutator of the metrics kernel. Its `noobs` twin
// (observe_off.go) compiles each one down to an empty body, so a `-tags
// noobs` build disables the entire observability layer with zero call-site
// changes — scripts/bench.sh measures the enabled-vs-disabled Assign
// throughput delta from exactly this switch.

// Add increments the counter. Negative deltas are a programming error but
// are applied as-is (counters never validate on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Observe records one non-negative observation: one atomic add into the
// owning bucket, one into the sum. Safe for unlimited concurrency.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start (a value
// returned by Now).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Now returns the wall clock for a later ObserveSince. Under the noobs tag
// it returns the zero time without touching the clock, so disabled builds
// skip the vDSO call too — instrumented code uses obs.Now, never time.Now,
// for durations destined for a histogram.
func Now() time.Time { return time.Now() }
