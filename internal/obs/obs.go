// Package obs is the serving pipeline's measurement substrate: a
// stdlib-only, lock-free metrics kernel plus a tiny registry that renders
// the Prometheus text exposition format by hand (the module has zero
// dependencies and keeps it that way).
//
// The primitives are built for the RCU read path: a Counter is one
// atomic.Int64 (gauges sample a callback at scrape time), and a Histogram is a fixed vector of power-of-two buckets —
// recording an observation is one atomic add into the bucket owning the
// value (plus one into the running sum), with no locks, no allocations and
// no coordination with renderers. Readers (the /metrics scrape, quantile
// estimation for /v1/stats) work from point-in-time atomic loads; cumulative
// bucket counts are computed at render time, so they are monotone by
// construction even while observers race the scrape.
//
// Metrics are diagnostics, carved out of the determinism contract exactly
// like the engine's kernel-evaluation counters: nothing on a deterministic
// path may ever read a metric to make a decision, and the `noobs` build tag
// compiles every mutator down to a no-op so the overhead of the enabled
// build can be measured against a disabled one (scripts/bench.sh records
// the delta).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: bucket i holds observations in
// (2^(i-1), 2^i] (bucket 0 holds v ≤ 1), which spans every positive int64,
// so an observation can never fall off the end.
const histBuckets = 64

// desc is the identity of a metric: family name, help text, Prometheus type
// and an optional pre-rendered constant label pair list (`k="v",k2="v2"`).
type desc struct {
	name, help, typ, labels string
}

// Labels joins pre-rendered constant label fragments into one label list,
// skipping empty fragments: Labels(`mode="single"`, `shard="3"`) renders as
// `mode="single",shard="3"`, and Labels(`mode="single"`, "") is just
// `mode="single"`. It exists so subsystems that instantiate the same metric
// families more than once per process (one engine per shard) can append a
// disambiguating label without string-building at every call site.
func Labels(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	return b.String()
}

// Metric is one registered sample source. Implementations live in this
// package only (the render method is unexported): Counter, CounterFunc,
// GaugeFunc and Histogram.
type Metric interface {
	describe() desc
	render(b *strings.Builder)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	d desc
	v atomic.Int64
}

// NewCounter builds a standalone counter; labels is a pre-rendered constant
// label list (`op="save"`) or empty.
func NewCounter(name, help, labels string) *Counter {
	return &Counter{d: desc{name: name, help: help, typ: "counter", labels: labels}}
}

func (c *Counter) describe() desc { return c.d }

func (c *Counter) render(b *strings.Builder) {
	sampleLine(b, c.d.name, "", c.d.labels, "", float64(c.v.Load()), true)
}

// funcMetric samples a callback at render time. The callback runs on the
// scrape goroutine concurrently with everything else, so it must only read
// atomics or immutable published state — never a mutable field owned by
// another goroutine.
type funcMetric struct {
	d  desc
	fn func() int64
}

// NewCounterFunc exposes an externally maintained monotone count (an
// existing atomic the owning subsystem already keeps) as a counter.
func NewCounterFunc(name, help, labels string, fn func() int64) Metric {
	return &funcMetric{d: desc{name: name, help: help, typ: "counter", labels: labels}, fn: fn}
}

// NewGaugeFunc exposes an externally maintained value as a gauge.
func NewGaugeFunc(name, help, labels string, fn func() int64) Metric {
	return &funcMetric{d: desc{name: name, help: help, typ: "gauge", labels: labels}, fn: fn}
}

func (f *funcMetric) describe() desc { return f.d }

func (f *funcMetric) render(b *strings.Builder) {
	sampleLine(b, f.d.name, "", f.d.labels, "", float64(f.fn()), true)
}

// Histogram is a fixed log₂-bucketed distribution over non-negative int64
// observations (latencies in nanoseconds, sizes in points or bytes).
// Observe is one atomic add into the owning bucket plus one into the sum —
// no locks, no allocations — so it is safe from the lock-free assign path.
// Scale converts raw observation units into rendered units (1e-9 renders
// nanosecond observations as Prometheus-conventional seconds; 1 renders
// counts as themselves).
type Histogram struct {
	d       desc
	scale   float64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram builds a standalone histogram.
func NewHistogram(name, help, labels string, scale float64) *Histogram {
	return &Histogram{d: desc{name: name, help: help, typ: "histogram", labels: labels}, scale: scale}
}

// bucketIndex maps an observation to its bucket: v ≤ 1 → 0, else the bucket
// whose inclusive upper bound 2^i is the first to reach v (bits.Len64 is a
// single LZCNT on amd64/arm64, so indexing costs nothing next to the add).
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in rendered units, linearly
// interpolated inside the owning power-of-two bucket. An empty histogram
// reports 0. Estimates are diagnostics: the bucket bound caps the relative
// error at 2×, which is plenty to read a latency percentile.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := 0.0
			if i > 0 {
				lo = math.Ldexp(1, i-1) // 2^(i-1)
			}
			hi := math.Ldexp(1, i) // 2^i
			frac := (target - cum) / float64(c)
			return (lo + frac*(hi-lo)) * h.scale
		}
		cum = next
	}
	return math.Ldexp(1, histBuckets-1) * h.scale
}

func (h *Histogram) describe() desc { return h.d }

func (h *Histogram) render(b *strings.Builder) {
	var counts [histBuckets]int64
	hi := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += counts[i]
		le := strconv.FormatFloat(math.Ldexp(1, i)*h.scale, 'g', -1, 64)
		sampleLine(b, h.d.name, "_bucket", h.d.labels, `le="`+le+`"`, float64(cum), true)
	}
	sampleLine(b, h.d.name, "_bucket", h.d.labels, `le="+Inf"`, float64(cum), true)
	sampleLine(b, h.d.name, "_sum", h.d.labels, "", float64(h.sum.Load())*h.scale, false)
	sampleLine(b, h.d.name, "_count", h.d.labels, "", float64(cum), true)
}

// sampleLine renders one `name_suffix{labels,extra} value` exposition line.
func sampleLine(b *strings.Builder, name, suffix, labels, extra string, v float64, integer bool) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	if integer && v == math.Trunc(v) && math.Abs(v) < 1e15 {
		b.WriteString(strconv.FormatInt(int64(v), 10))
	} else {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte('\n')
}

// family groups every metric registered under one name: same help, same
// type, distinct constant label sets (the snapshot byte counters are one
// family with an `op` label per member).
type family struct {
	d       desc
	metrics []Metric
}

// Registry is an ordered collection of metric families. Registration is
// rare and locked; rendering takes the same lock only to snapshot the
// family list, so scrapes never contend with observers (observers take no
// lock at all).
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// MustRegister adds metrics to the registry. Registering a second metric
// under an existing family name appends it to the family (its help and type
// must match); registering the same name+labels twice panics — both are
// programming errors, not runtime conditions.
func (r *Registry) MustRegister(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		d := m.describe()
		f, ok := r.byName[d.name]
		if !ok {
			f = &family{d: d}
			r.byName[d.name] = f
			r.fams = append(r.fams, f)
		} else {
			if f.d.typ != d.typ {
				panic(fmt.Sprintf("obs: family %s registered as %s and %s", d.name, f.d.typ, d.typ))
			}
			for _, prev := range f.metrics {
				if prev.describe().labels == d.labels {
					panic(fmt.Sprintf("obs: duplicate metric %s{%s}", d.name, d.labels))
				}
			}
		}
		f.metrics = append(f.metrics, m)
	}
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4), families sorted by name, samples in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].d.name < fams[b].d.name })
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.d.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.d.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.d.name)
		b.WriteByte(' ')
		b.WriteString(f.d.typ)
		b.WriteByte('\n')
		for _, m := range f.metrics {
			m.render(&b)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
