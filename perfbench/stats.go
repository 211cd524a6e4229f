package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// beyond is the number of n sorted samples strictly above the nearest-rank
// p-th percentile.
func beyond(p float64, n int) int { return n - rankOf(p, n) }

// rankOf is the 1-based nearest-rank position of percentile p in n sorted
// samples: the smallest rank whose cumulative share reaches p.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9: 99.9% of 20000 is rank 19980

	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies summarizes one timed phase's per-request durations.
type latencies struct {
	P50ms    float64 `json:"p50_ms"`
	TailP    float64 `json:"tail_percentile"`
	Tailms   float64 `json:"tail_ms"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"samples_beyond_tail"`
	Duration float64 `json:"phase_s"`
}

// summarize computes the median and the tail-th percentile of ds. When
// fewer than minBeyond samples lie above that percentile the phase was too
// short to report it: the tail is left 0 and an error says so.
func summarize(ds []time.Duration, tail float64, phase time.Duration) (latencies, error) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	l := latencies{
		P50ms:    median(ms),
		TailP:    tail,
		Samples:  len(ms),
		Beyond:   beyond(tail, len(ms)),
		Duration: phase.Seconds(),
	}
	if l.Beyond < minBeyond {
		return l, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", tail, len(ms), l.Beyond, minBeyond)
	}
	l.Tailms = percentile(ms, tail)
	return l, nil
}

// rateWindows is how many equal-count windows a phase's throughput is split
// into; the reported rate is their median, so a burst of load from outside
// the benchmark that slows a few windows does not move it.
const rateWindows = 20

// medianRate is the median of windowRates.
func medianRate(ends []time.Duration, perReq float64) float64 {
	return median(windowRates(ends, perReq))
}

// windowRates splits request completion times (offsets from the phase
// start) into rateWindows windows of equal request count and returns their
// rates, in units per second with perReq units per request.
func windowRates(ends []time.Duration, perReq float64) []float64 {
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := min(rateWindows, len(s))
	rates := make([]float64, 0, w)
	var prev time.Duration
	for k := 0; k < w; k++ {
		i0, i1 := k*len(s)/w, (k+1)*len(s)/w
		if k > 0 {
			prev = s[i0-1]
		}
		if span := s[i1-1] - prev; span > 0 {
			rates = append(rates, float64(i1-i0)*perReq/span.Seconds())
		}
	}
	return rates
}
