//go:build !noobs

package obs

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRenderGolden pins the exposition format byte-for-byte on a fixed
// registry: family grouping with HELP/TYPE emitted once, name-sorted
// families, label merging, histogram bucket/sum/count lines with
// power-of-two le bounds in scaled units.
func TestRenderGolden(t *testing.T) {
	reg := NewRegistry()
	scans := NewCounter("alid_scans_total", "cluster scans by tier", `tier="exact"`)
	pruned := NewCounter("alid_scans_total", "cluster scans by tier", `tier="pruned"`)
	depth := NewGaugeFunc("alid_queue_points", "ingest queue depth", "", func() int64 { return 7 })
	up := NewGaugeFunc("alid_up", "always one", "", func() int64 { return 1 })
	lat := NewHistogram("alid_assign_duration_seconds", "assign latency", `mode="single"`, 1e-9)
	sizes := NewHistogram("alid_batch_points", "batch sizes", "", 1)
	reg.MustRegister(scans, pruned, depth, up, lat, sizes)

	scans.Add(3)
	pruned.Inc()
	for _, ns := range []int64{0, 1, 2, 900, 1000, 1024, 1025} {
		lat.Observe(ns)
	}
	sizes.Observe(64)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alid_assign_duration_seconds assign latency
# TYPE alid_assign_duration_seconds histogram
alid_assign_duration_seconds_bucket{mode="single",le="1e-09"} 2
alid_assign_duration_seconds_bucket{mode="single",le="2e-09"} 3
alid_assign_duration_seconds_bucket{mode="single",le="4e-09"} 3
alid_assign_duration_seconds_bucket{mode="single",le="8e-09"} 3
alid_assign_duration_seconds_bucket{mode="single",le="1.6e-08"} 3
alid_assign_duration_seconds_bucket{mode="single",le="3.2e-08"} 3
alid_assign_duration_seconds_bucket{mode="single",le="6.4e-08"} 3
alid_assign_duration_seconds_bucket{mode="single",le="1.28e-07"} 3
alid_assign_duration_seconds_bucket{mode="single",le="2.56e-07"} 3
alid_assign_duration_seconds_bucket{mode="single",le="5.12e-07"} 3
alid_assign_duration_seconds_bucket{mode="single",le="1.024e-06"} 6
alid_assign_duration_seconds_bucket{mode="single",le="2.048e-06"} 7
alid_assign_duration_seconds_bucket{mode="single",le="+Inf"} 7
alid_assign_duration_seconds_sum{mode="single"} 3.9520000000000004e-06
alid_assign_duration_seconds_count{mode="single"} 7
# HELP alid_batch_points batch sizes
# TYPE alid_batch_points histogram
alid_batch_points_bucket{le="1"} 0
alid_batch_points_bucket{le="2"} 0
alid_batch_points_bucket{le="4"} 0
alid_batch_points_bucket{le="8"} 0
alid_batch_points_bucket{le="16"} 0
alid_batch_points_bucket{le="32"} 0
alid_batch_points_bucket{le="64"} 1
alid_batch_points_bucket{le="+Inf"} 1
alid_batch_points_sum 64
alid_batch_points_count 1
# HELP alid_queue_points ingest queue depth
# TYPE alid_queue_points gauge
alid_queue_points 7
# HELP alid_scans_total cluster scans by tier
# TYPE alid_scans_total counter
alid_scans_total{tier="exact"} 3
alid_scans_total{tier="pruned"} 1
# HELP alid_up always one
# TYPE alid_up gauge
alid_up 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9+][0-9eE.+-]*(Inf)?$`)
)

// CheckExposition validates Prometheus text format line grammar plus
// histogram invariants (cumulative buckets monotone, ending at +Inf ==
// _count). Shared with the server-level /metrics test via export_test.go.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	var lastCum int64
	var inHist bool
	var lastBucketCum int64
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !helpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !typeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
			inHist = strings.HasSuffix(line, " histogram")
			lastCum = 0
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
			if inHist && strings.Contains(line, "_bucket{") {
				v := line[strings.LastIndexByte(line, ' ')+1:]
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Errorf("bucket value %q: %v", v, err)
					continue
				}
				if n < lastCum {
					t.Errorf("non-monotone cumulative bucket: %q after %d", line, lastCum)
				}
				lastCum = n
				if strings.Contains(line, `le="+Inf"`) {
					lastBucketCum = n
					lastCum = 0
				}
			}
			if inHist && strings.Contains(line, "_count") {
				v := line[strings.LastIndexByte(line, ' ')+1:]
				if n, _ := strconv.ParseInt(v, 10, 64); n != lastBucketCum {
					t.Errorf("histogram _count %d != +Inf bucket %d (%q)", n, lastBucketCum, line)
				}
			}
		}
	}
}

func TestHandlerGrammar(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram("x_seconds", "x", "", 1e-9)
	c := NewCounter("x_total", "x count", `a="b"`)
	reg.MustRegister(h, c)
	for i := int64(1); i < 100000; i *= 3 {
		h.Observe(i)
	}
	c.Add(41)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	checkExposition(t, rec.Body.String())
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{9, 4}, {1023, 10}, {1024, 10}, {1025, 11}, {1 << 40, 40}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram("q_ns", "q", "", 1)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 1000 observations of exactly 1000ns land in bucket (512, 1024]; any
	// quantile must interpolate inside that bracket.
	for i := 0; i < 1000; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got <= 512 || got > 1024 {
			t.Errorf("Quantile(%v) = %v, want in (512, 1024]", q, got)
		}
	}
	// A bimodal distribution: p50 in the low mode's bucket, p99 in the high
	// mode's bucket.
	b := NewHistogram("b_ns", "b", "", 1)
	for i := 0; i < 95; i++ {
		b.Observe(100) // bucket (64, 128]
	}
	for i := 0; i < 5; i++ {
		b.Observe(100000) // bucket (65536, 131072]
	}
	if got := b.Quantile(0.5); got <= 64 || got > 128 {
		t.Errorf("bimodal p50 = %v, want in (64, 128]", got)
	}
	if got := b.Quantile(0.99); got <= 65536 || got > 131072 {
		t.Errorf("bimodal p99 = %v, want in (65536, 131072]", got)
	}
}

// TestHistogramConcurrent hammers one histogram from concurrent observers
// while rendering and quantile-reading mid-write; -race is the real assert,
// plus the final count must equal the observations issued (no lost adds).
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram("c_seconds", "c", "", 1e-9)
	reg.MustRegister(h)
	const workers = 8
	const perWorker = 20000
	stop := make(chan struct{})
	renderDone := make(chan struct{})
	go func() { // concurrent renderer + quantile reader, racing the observers
		defer close(renderDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Error(err)
				return
			}
			checkExposition(t, b.String())
			_ = h.Quantile(0.95)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWorker; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(v & 0xfffff)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stop)
	<-renderDone
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

// TestObserveAllocFree proves the assign-path contract: recording an
// observation (and reading the clock for one) allocates nothing.
func TestObserveAllocFree(t *testing.T) {
	h := NewHistogram("a_seconds", "a", "", 1e-9)
	c := NewCounter("a_total", "a", "")
	if allocs := testing.AllocsPerRun(200, func() {
		start := Now()
		c.Add(3)
		h.Observe(123456)
		h.ObserveSince(start)
	}); allocs != 0 {
		t.Fatalf("Observe path allocates %v times per run, want 0", allocs)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}
