package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/engine"
	"alid/internal/lsh"
	"alid/internal/testutil"
)

func testServer(t *testing.T) (*Server, *engine.Engine) {
	return testServerOpts(t, Options{})
}

// testServerOpts builds a fresh engine per call (a Server registers its HTTP
// metrics into the engine's registry, so servers and engines pair 1:1).
func testServerOpts(t *testing.T, opts Options) (*Server, *engine.Engine) {
	t.Helper()
	return testServerShare(t, opts, 0)
}

// testServerShare is testServerOpts with the engine's CompactEvictedShare.
func testServerShare(t *testing.T, opts Options, share float64) (*Server, *engine.Engine) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.3, P: 2}
	cfg.LSH = lsh.Config{Projections: 6, Tables: 10, R: 4, Seed: 1}
	cfg.Delta = 200
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 10, 0, 15)
	eng, err := engine.New(engine.Config{Core: cfg, BatchSize: 50, CompactEvictedShare: share}, pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng, opts), eng
}

func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	if out != nil && res.StatusCode < 300 {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return res
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	res := doJSON(t, s.Handler(), http.MethodGet, "/healthz", nil, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
}

func TestAssignEndpoint(t *testing.T) {
	s, eng := testServer(t)
	var out AssignResponse
	res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{Point: []float64{0.1, 0}}, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if out.Cluster < 0 || !out.Infective {
		t.Fatalf("center not served: %+v", out)
	}
	// The HTTP answer must equal the in-process answer exactly.
	want, err := eng.Assign([]float64{0.1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cluster != want.Cluster || out.Score != want.Score || out.Density != want.Density {
		t.Fatalf("http %+v vs engine %+v", out, want)
	}

	// Errors: wrong width, empty point, bad JSON, wrong method.
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{Point: []float64{1, 2, 3}}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong width: status %d", res.StatusCode)
	}
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty point: status %d", res.StatusCode)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", rec.Code)
	}
	if res := doJSON(t, s.Handler(), http.MethodGet, "/v1/assign", nil, nil); res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET assign: status %d", res.StatusCode)
	}
}

func TestAssignBatchEndpoint(t *testing.T) {
	s, eng := testServer(t)
	pts := [][]float64{{0.1, 0}, {15.1, 14.9}, {400, -400}}
	var out AssignBatchResponse
	res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{Points: pts}, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if len(out.Results) != len(pts) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(pts))
	}
	// The HTTP batch answer must equal the in-process batch answer exactly,
	// per point and in order.
	want, err := eng.AssignBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		w := want[i]
		if r.Cluster != w.Cluster || r.Score != w.Score || r.Density != w.Density ||
			r.Infective != w.Infective || r.Candidates != w.Candidates {
			t.Fatalf("result %d: http %+v vs engine %+v", i, r, w)
		}
	}
	if out.Results[0].Cluster < 0 || out.Results[2].Cluster != -1 {
		t.Fatalf("unexpected batch answers: %+v", out.Results)
	}

	// One bad point fails the whole batch, naming its index.
	bad := AssignRequest{Points: [][]float64{{0, 0}, {1, 2, 3}}}
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", bad, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d", res.StatusCode)
	}
	// Setting both forms is rejected.
	both := AssignRequest{Point: []float64{0, 0}, Points: [][]float64{{1, 1}}}
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", both, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("both forms: status %d", res.StatusCode)
	}
}

func TestAssignBatchMaxRejects(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 0.3, P: 2}
	cfg.LSH = lsh.Config{Projections: 6, Tables: 10, R: 4, Seed: 1}
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}}, 30, 0.3, 0, 0, 1)
	eng, err := engine.New(engine.Config{Core: cfg, BatchSize: 50}, pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, Options{AssignBatchMax: 2})

	ok := AssignRequest{Points: [][]float64{{0, 0}, {1, 1}}}
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", ok, nil); res.StatusCode != http.StatusOK {
		t.Fatalf("at-cap batch: status %d", res.StatusCode)
	}
	over := AssignRequest{Points: [][]float64{{0, 0}, {1, 1}, {2, 2}}}
	res := doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", over, nil)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap batch: status %d, want 413", res.StatusCode)
	}
	// 413 is decided before any scoring: the engine never saw the batch.
	if got := eng.Stats().Assigns; got != 2 {
		t.Fatalf("assigns = %d, want 2 (rejected batch must not be scored)", got)
	}
}

func TestIngestEndpointWaited(t *testing.T) {
	s, eng := testServer(t)
	before := eng.Stats().N
	pts, _ := testutil.Blobs(19, [][]float64{{-20, -20}}, 30, 0.3, 0, 0, 1)
	var out IngestResponse
	res := doJSON(t, s.Handler(), http.MethodPost, "/v1/ingest", IngestRequest{Points: pts, Wait: true}, &out)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", res.StatusCode)
	}
	if out.Accepted != len(pts) {
		t.Fatalf("accepted %d, want %d", out.Accepted, len(pts))
	}
	if got := eng.Stats().N; got != before+len(pts) {
		t.Fatalf("N = %d, want %d", got, before+len(pts))
	}
	// The new blob is servable immediately after the waited ingest.
	var a AssignResponse
	doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{Point: []float64{-20, -20.1}}, &a)
	if a.Cluster < 0 || !a.Infective {
		t.Fatalf("ingested blob not served: %+v", a)
	}

	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/ingest", IngestRequest{}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d", res.StatusCode)
	}
	if res := doJSON(t, s.Handler(), http.MethodPost, "/v1/ingest", IngestRequest{Points: [][]float64{{1, 2, 3}}}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-width ingest: status %d", res.StatusCode)
	}
}

func TestClustersEndpoint(t *testing.T) {
	s, eng := testServer(t)
	var out ClustersResponse
	res := doJSON(t, s.Handler(), http.MethodGet, "/v1/clusters", nil, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if st := eng.Stats(); out.N != st.N || len(out.Clusters) != st.Clusters {
		t.Fatalf("response %+v vs engine n=%d clusters=%d", out, st.N, st.Clusters)
	}
	for i, c := range out.Clusters {
		if c.ID != i || c.Size == 0 || len(c.Members) != c.Size || len(c.Weights) != c.Size {
			t.Fatalf("cluster %d malformed: %+v", i, c)
		}
	}
	// Summary form omits members.
	var sum ClustersResponse
	doJSON(t, s.Handler(), http.MethodGet, "/v1/clusters?members=false", nil, &sum)
	for i, c := range sum.Clusters {
		if len(c.Members) != 0 || len(c.Weights) != 0 {
			t.Fatalf("summary cluster %d has members: %+v", i, c)
		}
		if c.Size != out.Clusters[i].Size || c.Density != out.Clusters[i].Density {
			t.Fatalf("summary cluster %d disagrees: %+v vs %+v", i, c, out.Clusters[i])
		}
	}
	if res := doJSON(t, s.Handler(), http.MethodGet, "/v1/clusters?members=banana", nil, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad members flag: status %d", res.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	doJSON(t, s.Handler(), http.MethodPost, "/v1/assign", AssignRequest{Point: []float64{0, 0}}, nil)
	var out StatsResponse
	res := doJSON(t, s.Handler(), http.MethodGet, "/v1/stats", nil, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if out.N == 0 || out.Dim != 2 || out.Clusters == 0 || out.Assigns == 0 {
		t.Fatalf("stats %+v", out)
	}
}

// Serve must come up, answer over a real socket, and shut down gracefully on
// context cancellation.
func TestServeGracefulShutdown(t *testing.T) {
	s, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	// Pick a free port first.
	probe := httptest.NewServer(http.NotFoundHandler())
	addr := probe.Listener.Addr().String()
	probe.Close()

	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, addr) }()

	url := fmt.Sprintf("http://%s/healthz", addr)
	var up bool
	for i := 0; i < 100; i++ {
		if res, err := http.Get(url); err == nil {
			res.Body.Close()
			up = res.StatusCode == http.StatusOK
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never came up")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown timed out")
	}
}

// Every listener the daemon opens bounds how long a client may take to send
// its request headers and how long an idle keep-alive connection stays open.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := NewHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("listener timeouts must be positive (zero disables them)")
	}
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Fatalf("addr %q handler %v", hs.Addr, hs.Handler)
	}
}

// POST /v1/evict tombstones points and the change is visible through every
// other endpoint: stats drop live_n, clusters shed the dead members.
func TestEvictEndpoint(t *testing.T) {
	s, eng := testServer(t)
	h := s.Handler()

	var before StatsResponse
	doJSON(t, h, http.MethodGet, "/v1/stats", nil, &before)
	if before.LiveN != before.N || before.Evicted != 0 {
		t.Fatalf("fresh stats %+v", before)
	}

	// Kill the whole second blob (ids 30..59) plus two noise points.
	ids := []int{60, 61}
	for i := 30; i < 60; i++ {
		ids = append(ids, i)
	}
	var ev EvictResponse
	res := doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: ids}, &ev)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("evict status %d", res.StatusCode)
	}
	if ev.Evicted != len(ids) {
		t.Fatalf("evicted %d, want %d", ev.Evicted, len(ids))
	}
	// Idempotent retry.
	doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: ids}, &ev)
	if ev.Evicted != 0 {
		t.Fatalf("retry evicted %d, want 0", ev.Evicted)
	}

	var after StatsResponse
	doJSON(t, h, http.MethodGet, "/v1/stats", nil, &after)
	if after.LiveN != before.N-len(ids) || after.Evicted != int64(len(ids)) || after.N != before.N {
		t.Fatalf("stats after evict %+v (before %+v)", after, before)
	}

	var cls ClustersResponse
	doJSON(t, h, http.MethodGet, "/v1/clusters", nil, &cls)
	for _, cl := range cls.Clusters {
		for _, m := range cl.Members {
			if m >= 30 && m < 60 {
				t.Fatalf("cluster %d still contains evicted member %d", cl.ID, m)
			}
		}
	}
	// The evicted blob's center no longer assigns to a blob-30..59 cluster;
	// the surviving blob still assigns.
	var a AssignResponse
	doJSON(t, h, http.MethodPost, "/v1/assign", AssignRequest{Point: []float64{0.02, 0.01}}, &a)
	if a.Cluster < 0 {
		t.Fatal("surviving blob unassignable after evict")
	}

	// Bad requests: empty ids, out-of-range ids, wrong method.
	if res := doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ids → %d", res.StatusCode)
	}
	if res := doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: []int{99999}}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range ids → %d", res.StatusCode)
	}
	if res := doJSON(t, h, http.MethodGet, "/v1/evict", nil, nil); res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET → %d", res.StatusCode)
	}
	_ = eng
}

// EvictResponse.already_dead reports how many DISTINCT requested ids were
// already tombstoned, so clients can tell a no-op retry from a partial one.
func TestEvictAlreadyDead(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	ids := []int{10, 11, 12, 13}
	var ev EvictResponse
	doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: ids}, &ev)
	if ev.Evicted != len(ids) || ev.AlreadyDead != 0 {
		t.Fatalf("fresh evict %+v, want evicted=%d already_dead=0", ev, len(ids))
	}

	// Full retry: nothing newly evicted, everything already dead.
	doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: ids}, &ev)
	if ev.Evicted != 0 || ev.AlreadyDead != len(ids) {
		t.Fatalf("retry %+v, want evicted=0 already_dead=%d", ev, len(ids))
	}

	// Mixed request with duplicates: dead ids and dupes each count ONCE.
	doJSON(t, h, http.MethodPost, "/v1/evict",
		EvictRequest{IDs: []int{10, 10, 11, 20, 20, 21}}, &ev)
	if ev.Evicted != 2 || ev.AlreadyDead != 2 {
		t.Fatalf("mixed %+v, want evicted=2 already_dead=2", ev)
	}
}

// GET /v1/stats surfaces the generation counters and, when the operator
// wired a delta chain, its current length.
func TestStatsGenerationFields(t *testing.T) {
	// Every eviction crosses the share, so the writer compacts before the
	// evict replies.
	s, _ := testServerShare(t, Options{}, 1e-9)
	h := s.Handler()

	var st StatsResponse
	doJSON(t, h, http.MethodGet, "/v1/stats", nil, &st)
	if st.Generation != 0 || st.DeltaChainLen != 0 {
		t.Fatalf("fresh stats %+v, want generation=0 delta_chain_len=0", st)
	}
	if st.EverSeenIDs != st.N {
		t.Fatalf("ever_seen_ids=%d, want %d (no compaction yet)", st.EverSeenIDs, st.N)
	}

	// Evict and compact: the generation bumps, ever-seen keeps counting the
	// released ids, live N shrinks to the survivors.
	before := st.N
	ids := []int{0, 1, 2, 3, 4}
	doJSON(t, h, http.MethodPost, "/v1/evict", EvictRequest{IDs: ids}, nil)
	doJSON(t, h, http.MethodGet, "/v1/stats", nil, &st)
	if st.Generation != 1 {
		t.Fatalf("generation=%d after compaction, want 1", st.Generation)
	}
	if st.EverSeenIDs != before || st.N != before-len(ids) {
		t.Fatalf("stats after compaction %+v, want ever_seen_ids=%d n=%d",
			st, before, before-len(ids))
	}

	// With a chain length source wired, stats report it verbatim.
	chained, _ := testServerOpts(t, Options{DeltaChainLen: func() int { return 2 }})
	doJSON(t, chained.Handler(), http.MethodGet, "/v1/stats", nil, &st)
	if st.DeltaChainLen != 2 {
		t.Fatalf("delta_chain_len=%d, want 2", st.DeltaChainLen)
	}
}
