package main

import (
	"math"
	"runtime/metrics"
)

// gcReading is a runtime/metrics snapshot; deltas between two readings
// give a phase's GC work and allocation.
type gcReading struct {
	cycles, allocBytes, pauseMS float64
}

var gcSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcReading {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var g gcReading
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauseMS = histTotal(s[2].Value.Float64Histogram()) * 1e3
	}
	return g
}

// histTotal estimates the sum of a runtime histogram's observations from
// its bucket midpoints (the finite bound for the open-ended end buckets).
func histTotal(h *metrics.Float64Histogram) float64 {
	var t float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		}
		t += float64(c) * v
	}
	return t
}

func (g gcReading) since(b gcReading) gcReading {
	return gcReading{cycles: g.cycles - b.cycles, allocBytes: g.allocBytes - b.allocBytes, pauseMS: g.pauseMS - b.pauseMS}
}

func (g gcReading) plus(b gcReading) gcReading {
	return gcReading{cycles: g.cycles + b.cycles, allocBytes: g.allocBytes + b.allocBytes, pauseMS: g.pauseMS + b.pauseMS}
}
