package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 0, name: "parent", parent: -1, start: 0, end: 100},
		{id: 1, name: "a", parent: 0, start: 10, end: 30},
		{id: 2, name: "b", parent: 0, start: 20, end: 50}, // overlaps a: counted once
		{id: 3, name: "c", parent: 0, start: 70, end: 80},
		{id: 4, name: "d", parent: 0, start: 90, end: 120}, // clipped to the parent
		{id: 5, name: "e", parent: 3, start: 72, end: 75},  // grandchild: c's, not the parent's
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10 - 10, 20, 30, 10 - 3, 30, 3}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s self %d, want %d", spans[i].name, self[i], want[i])
		}
	}
}

func TestCoveredEdgeCases(t *testing.T) {
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("no children: %d", got)
	}
	if got := covered([][2]int64{{0, 5}, {5, 10}}, 0, 10); got != 10 {
		t.Errorf("touching intervals: %d, want 10", got)
	}
	if got := covered([][2]int64{{20, 30}}, 0, 10); got != 0 {
		t.Errorf("outside the parent: %d, want 0", got)
	}
}

func TestSplitAttributesRequestTime(t *testing.T) {
	spans := []span{
		{id: 0, name: "client.ingest", req: 0, parent: -1, start: 0, end: 100},
		{id: 1, name: "server.ingest", req: 0, parent: 0, start: 10, end: 90},
		{id: 2, name: "engine.ingest", req: 0, parent: 1, start: 20, end: 30},
		{id: 3, name: "engine.flush", req: 0, parent: 1, start: 30, end: 80},
		// An assign span without a context belongs to no ingest request.
		{id: 4, name: "engine.assign", req: -1, parent: -1, start: 40, end: 45},
	}
	sp := splitOf(spans, "ingest", "ingest", "flush")
	if sp.Requests != 1 || sp.Client != 100 || sp.Net != 20 || sp.Server != 20 ||
		sp.Engine["ingest"] != 10 || sp.Engine["flush"] != 50 || sp.Remainder != 0 {
		t.Fatalf("split %+v", sp)
	}
	if got := sp.perRequestUS(sp.Engine["flush"], 1); got != 0.05 {
		t.Fatalf("flush %g us per request, want 0.05", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(4)
	tr.enable(false)
	if i, _ := tr.begin(); i != -1 {
		t.Fatalf("off tracer reserved slot %d", i)
	}
	tr.enable(true)
	for k := 0; k < 6; k++ {
		i, st := tr.begin()
		tr.end(i, st, "x", -1, -1)
	}
	if got := len(tr.done()); got != 4 || tr.dropped.Load() != 2 {
		t.Fatalf("kept %d spans, dropped %d; want 4 and 2", got, tr.dropped.Load())
	}
	var nilTracer *tracer
	if i, _ := nilTracer.begin(); i != -1 {
		t.Fatal("nil tracer reserved a slot")
	}
}
