package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"alid/internal/engine"
)

// span is one timed call at a layer boundary. Spans of one client request
// share req (the index of the client span); parent is the index of the span
// that caused this one, or -1 when the call carries no context to link it.
type span struct {
	id         int64
	name       string
	req        int64
	parent     int64
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a slice sized up front and writes them out when the
// run ends. A span's slot is reserved when it starts, so children can name
// their parent before it ends; a nil tracer records nothing.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool // spans are recorded only while on
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
}

// newTracer returns a tracer that is on, with room for capacity spans.
func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, capacity)}
	t.on.Store(true)
	return t
}

// enable switches recording; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin reserves a slot and returns its index and start time; -1 when the
// tracer is nil, off or full.
func (t *tracer) begin() (int64, int64) {
	if t == nil || !t.on.Load() {
		return -1, 0
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1, t.now()
	}
	return i, t.now()
}

// end fills a reserved slot.
func (t *tracer) end(i, start int64, name string, req, parent int64) {
	if i < 0 {
		return
	}
	t.spans[i] = span{id: i, name: name, req: req, parent: parent, start: start, end: t.now()}
}

// done returns the recorded spans; call it after every traced call returned.
func (t *tracer) done() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.end != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as gzipped CSV (id,name,req,parent,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,req,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", s.id, s.name, s.req, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns, parallel to spans, each span's duration minus the part
// of its interval that its children (spans naming it as parent) cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(kids[s.id], s.start, s.end)
	}
	return self
}

// Headers carrying a client span's identity to the server middleware.
const (
	hdrSpan = "X-Bench-Span"
	hdrOp   = "X-Bench-Op"
)

type ctxKey struct{}

// spanRef is the server span a handler's context carries to engine calls.
type spanRef struct{ req, idx int64 }

// middleware records one span per request around the server's handler,
// named server.<op> after the client's op header and linked to the client
// span named by hdrSpan. Engine calls that take the request context link
// to it in turn.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if err != nil {
			req = -1
		}
		i, st := t.begin()
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{req: req, idx: i}))
		next.ServeHTTP(w, r)
		t.end(i, st, "server."+r.Header.Get(hdrOp), req, req)
	})
}

// tracedServing is the engine-boundary decorator handed to server.New: it
// records a span around each call the HTTP layer makes on the serving path.
// Assign carries no context, so its spans stand alone and are matched to
// handler spans by per-route totals.
type tracedServing struct {
	engine.Serving
	t *tracer
}

func (s tracedServing) Assign(q []float64) (engine.Assignment, error) {
	i, st := s.t.begin()
	a, err := s.Serving.Assign(q)
	s.t.end(i, st, "engine.assign", -1, -1)
	return a, err
}

func (s tracedServing) AssignBatch(qs [][]float64) ([]engine.Assignment, error) {
	i, st := s.t.begin()
	as, err := s.Serving.AssignBatch(qs)
	s.t.end(i, st, "engine.assign_batch", -1, -1)
	return as, err
}

func (s tracedServing) Ingest(ctx context.Context, pts [][]float64) error {
	i, st := s.t.begin()
	err := s.Serving.Ingest(ctx, pts)
	ref := refOf(ctx)
	s.t.end(i, st, "engine.ingest", ref.req, ref.idx)
	return err
}

func (s tracedServing) Flush(ctx context.Context) error {
	i, st := s.t.begin()
	err := s.Serving.Flush(ctx)
	ref := refOf(ctx)
	s.t.end(i, st, "engine.flush", ref.req, ref.idx)
	return err
}

func refOf(ctx context.Context) spanRef {
	if r, ok := ctx.Value(ctxKey{}).(spanRef); ok {
		return r
	}
	return spanRef{req: -1, idx: -1}
}

// split attributes the client-observed time of one request kind to layers,
// as totals in nanoseconds over the traced requests.
type split struct {
	Requests  int              `json:"requests"`
	Client    int64            `json:"client_ns"`
	Net       int64            `json:"net_ns"`
	Server    int64            `json:"server_self_ns"`
	Engine    map[string]int64 `json:"engine_ns"`
	Remainder int64            `json:"remainder_ns"` // client − net − server self − engine
}

// splitOf attributes requests of kind op: net is each client span minus its
// server span; the server's self time is its span minus the engine spans it
// caused. Engine spans linked by context are matched to their server span;
// unlinked ones (Assign takes no context) are matched by per-route totals,
// which holds because one request kind runs at a time on that route.
func splitOf(spans []span, op string, engineNames ...string) split {
	sp := split{Engine: map[string]int64{}}
	clients := map[int64]span{}
	for _, s := range spans {
		if s.name == "client."+op {
			clients[s.id] = s
		}
	}
	servers := map[int64]bool{}
	var serverTotal int64
	for _, s := range spans {
		if s.name != "server."+op {
			continue
		}
		c, ok := clients[s.req]
		if !ok {
			continue
		}
		sp.Requests++
		sp.Client += c.dur()
		sp.Net += c.dur() - s.dur()
		serverTotal += s.dur()
		servers[s.id] = true
	}
	var engineTotal int64
	for _, s := range spans {
		for _, name := range engineNames {
			if s.name == "engine."+name && (s.parent < 0 || servers[s.parent]) {
				sp.Engine[name] += s.dur()
				engineTotal += s.dur()
			}
		}
	}
	sp.Server = serverTotal - engineTotal
	sp.Remainder = sp.Client - sp.Net - sp.Server - engineTotal
	return sp
}

// perRequestUS is a total as microseconds per request (per point when
// perReq > 1 counts points per request).
func (sp split) perRequestUS(total int64, perReq int) float64 {
	if sp.Requests == 0 {
		return 0
	}
	return float64(total) / 1e3 / float64(sp.Requests*perReq)
}
