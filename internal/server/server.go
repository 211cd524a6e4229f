// Package server exposes a serving engine over HTTP/JSON — the alidd
// daemon's API surface:
//
//	POST /v1/assign   {"point":[...]}            → cluster/score/infective
//	POST /v1/assign   {"points":[[...],...]}     → batched: results per point
//	POST /v1/assign   {"set":["a","b"]}          → set form (minhash backend)
//	POST /v1/ingest   {"points":[[...]],"wait":b}→ accepted count
//	POST /v1/ingest   {"sets":[["a","b"],...]}   → set form (minhash backend)
//	POST /v1/evict    {"ids":[...]}              → evicted count
//	GET  /v1/clusters[?members=false]            → maintained clusters
//	GET  /v1/stats                               → engine counters
//	GET  /metrics                                → Prometheus text exposition
//	GET  /healthz                                → 200 once serving
//
// Handlers only touch the engine's lock-free read paths and its ingest
// queue, so the HTTP layer inherits the engine's concurrency contract:
// request handling never blocks the writer, and assign throughput scales
// with cores.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"alid/internal/engine"
	"alid/internal/index"
	"alid/internal/minhash"
	"alid/internal/obs"
)

// Options tunes the HTTP layer.
type Options struct {
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// ShutdownGrace bounds graceful shutdown (default 5s).
	ShutdownGrace time.Duration
	// AssignBatchMax caps the number of points in one batched assign
	// (default 1024); larger batches are rejected with 413 before any
	// scoring work happens.
	AssignBatchMax int
	// Logger receives structured request logs (nil = no request logging).
	// Non-2xx responses are always logged; successes are sampled (below).
	Logger *slog.Logger
	// LogEvery samples successful request logs: 1 logs every request, n
	// logs every nth (default 100). Errors bypass sampling.
	LogEvery int
	// DeltaChainLen, when non-nil, reports the delta-snapshot chain length
	// for /v1/stats: the longest per-shard chain, i.e. the most deltas a
	// restart replays on any shard (wired by the daemon whenever -snapshot
	// is set; must be safe to call from any goroutine).
	DeltaChainLen func() int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.ShutdownGrace <= 0 {
		o.ShutdownGrace = 5 * time.Second
	}
	if o.AssignBatchMax <= 0 {
		o.AssignBatchMax = 1024
	}
	if o.LogEvery <= 0 {
		o.LogEvery = 100
	}
	return o
}

// httpMetrics is the HTTP-layer instrumentation, registered into the
// engine's registry so one /metrics scrape covers the whole process. The
// route label is the mux pattern, never the raw URL (bounded cardinality).
type httpMetrics struct {
	dur  map[string]*obs.Histogram // route → request duration
	code [6]*obs.Counter           // status class 0xx..5xx (0 unused)
}

func newHTTPMetrics(reg *obs.Registry, routes []string) *httpMetrics {
	m := &httpMetrics{dur: make(map[string]*obs.Histogram, len(routes))}
	for _, rt := range routes {
		h := obs.NewHistogram("alid_http_request_duration_seconds",
			"HTTP request latency by route.", `route="`+rt+`"`, 1e-9)
		m.dur[rt] = h
		reg.MustRegister(h)
	}
	for c := 2; c <= 5; c++ {
		m.code[c] = obs.NewCounter("alid_http_responses_total",
			"HTTP responses by status class.", fmt.Sprintf(`code="%dxx"`, c))
		reg.MustRegister(m.code[c])
	}
	return m
}

// Server wraps a serving engine — a single engine.Engine or a sharded
// engine.Sharded, anything satisfying engine.Serving — with the HTTP/JSON
// API. The handlers are identical either way: the Serving contract hides
// the scatter-gather behind the same lock-free read semantics.
type Server struct {
	eng    engine.Serving
	opts   Options
	mux    *http.ServeMux
	start  time.Time
	met    *httpMetrics
	logSeq atomic.Int64 // request counter driving success-log sampling
}

// New builds the server; the caller keeps ownership of the engine (and its
// Close). The server's HTTP metrics are registered into the engine's
// registry, so build at most one server per engine.
func New(eng engine.Serving, opts Options) *Server {
	s := &Server{eng: eng, opts: opts.withDefaults(), mux: http.NewServeMux(), start: time.Now()}
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"/v1/assign", s.handleAssign},
		{"/v1/ingest", s.handleIngest},
		{"/v1/evict", s.handleEvict},
		{"/v1/clusters", s.handleClusters},
		{"/v1/stats", s.handleStats},
		{"/healthz", s.handleHealth},
	}
	names := make([]string, len(routes))
	for i, rt := range routes {
		names[i] = rt.pattern
	}
	s.met = newHTTPMetrics(eng.Obs(), names)
	for _, rt := range routes {
		s.mux.Handle(rt.pattern, s.instrument(rt.pattern, rt.h))
	}
	// The scrape endpoint itself is neither metered nor logged.
	s.mux.Handle("/metrics", eng.Obs().Handler())
	return s
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route latency/status metrics and
// sampled structured request logs.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		el := time.Since(start)
		s.met.dur[route].Observe(el.Nanoseconds())
		if c := rec.status / 100; c >= 2 && c <= 5 {
			s.met.code[c].Inc()
		}
		if l := s.opts.Logger; l != nil {
			isErr := rec.status >= 400
			if isErr || s.logSeq.Add(1)%int64(s.opts.LogEvery) == 0 {
				lvl := slog.LevelInfo
				if isErr {
					lvl = slog.LevelWarn
				}
				l.LogAttrs(r.Context(), lvl, "request",
					slog.String("route", route),
					slog.String("method", r.Method),
					slog.Int("status", rec.status),
					slog.Duration("elapsed", el),
					slog.Bool("sampled", !isErr),
				)
			}
		}
	})
}

// Handler returns the routing handler (exported for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Listener timeouts of every HTTP server the daemon runs: a client that
// never finishes its request headers, or parks an idle keep-alive
// connection, is disconnected instead of holding the connection forever.
// There is no whole-request read or write timeout on purpose: pprof's
// profile and trace endpoints stream for as long as the client asks.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server serving h on addr with the listener
// timeouts set.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Serve runs an HTTP server on addr until ctx is cancelled, then shuts down
// gracefully within the configured grace period.
func (s *Server) Serve(ctx context.Context, addr string) error {
	hs := NewHTTPServer(addr, s.mux)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeErrCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// backend returns the engine's normalized index backend name.
func (s *Server) backend() string {
	return index.Normalize(s.eng.Config().Core.Backend)
}

// requireBackend enforces the request-form ↔ index-backend pairing at the
// API boundary (the set-workload counterpart of the engine's dense
// dimension check): a mismatch is a typed 400 naming the engine's index
// backend, never a silent reinterpretation of signatures as coordinates.
func (s *Server) requireBackend(w http.ResponseWriter, want, form string) bool {
	if got := s.backend(); got != want {
		writeErrCode(w, http.StatusBadRequest, CodeBackendMismatch,
			"%s form requires the %q index backend; this engine serves %q", form, want, got)
		return false
	}
	return true
}

// signSets converts the set form to MinHash signatures with the engine's
// parameters, reporting the offending set's position on error.
func (s *Server) signSets(w http.ResponseWriter, sets [][]string) ([][]float64, bool) {
	cfg := s.eng.Config().Core.MinHash
	sigs := make([][]float64, len(sets))
	for i, set := range sets {
		sig, err := minhash.Signature(set, cfg)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "sets[%d]: %v", i, err)
			return nil, false
		}
		sigs[i] = sig
	}
	return sigs, true
}

// decodeBody strictly decodes one JSON object into dst.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req AssignRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	forms := 0
	for _, set := range []bool{len(req.Point) > 0, len(req.Points) > 0, len(req.Set) > 0, len(req.Sets) > 0} {
		if set {
			forms++
		}
	}
	if forms > 1 {
		writeErr(w, http.StatusBadRequest, "set exactly one of point, points, set or sets")
		return
	}
	if len(req.Sets) > 0 {
		if !s.requireBackend(w, index.BackendMinHash, "sets") {
			return
		}
		sigs, ok := s.signSets(w, req.Sets)
		if !ok {
			return
		}
		s.assignBatch(w, sigs)
		return
	}
	if len(req.Set) > 0 {
		if !s.requireBackend(w, index.BackendMinHash, "set") {
			return
		}
		sig, err := minhash.Signature(req.Set, s.eng.Config().Core.MinHash)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "set: %v", err)
			return
		}
		req.Point = sig
	} else if len(req.Point) > 0 || len(req.Points) > 0 {
		// Dense forms are for dense engines: raw floats sent to a set
		// engine would be misread as signatures.
		if !s.requireBackend(w, index.BackendLSH, "point") {
			return
		}
	}
	if len(req.Points) > 0 {
		s.assignBatch(w, req.Points)
		return
	}
	if len(req.Point) == 0 {
		writeErr(w, http.StatusBadRequest, "empty point")
		return
	}
	a, err := s.eng.Assign(req.Point)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, AssignResponse{
		Cluster:    a.Cluster,
		Score:      a.Score,
		Density:    a.Density,
		Infective:  a.Infective,
		Candidates: a.Candidates,
	})
}

// assignBatch serves the batch form of /v1/assign: one engine AssignBatch
// call (one published state for the whole batch), results in request order.
func (s *Server) assignBatch(w http.ResponseWriter, points [][]float64) {
	if len(points) > s.opts.AssignBatchMax {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d points exceeds the maximum of %d", len(points), s.opts.AssignBatchMax)
		return
	}
	as, err := s.eng.AssignBatch(points)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	results := make([]AssignResponse, len(as))
	for i, a := range as {
		results[i] = AssignResponse{
			Cluster:    a.Cluster,
			Score:      a.Score,
			Density:    a.Density,
			Infective:  a.Infective,
			Candidates: a.Candidates,
		}
	}
	writeJSON(w, http.StatusOK, AssignBatchResponse{Results: results})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req IngestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) > 0 && len(req.Sets) > 0 {
		writeErr(w, http.StatusBadRequest, "set either points or sets, not both")
		return
	}
	if len(req.Sets) > 0 {
		if !s.requireBackend(w, index.BackendMinHash, "sets") {
			return
		}
		sigs, ok := s.signSets(w, req.Sets)
		if !ok {
			return
		}
		req.Points = sigs
	} else if len(req.Points) > 0 {
		if !s.requireBackend(w, index.BackendLSH, "points") {
			return
		}
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, "no points")
		return
	}
	if err := s.eng.Ingest(r.Context(), req.Points); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Wait {
		if err := s.eng.Flush(r.Context()); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "commit: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: len(req.Points)})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req EvictRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, "no ids")
		return
	}
	// Distinct ids, so already_dead is exact even for requests that repeat
	// an id (the engine newly-tombstones each id at most once).
	unique := make(map[int]struct{}, len(req.IDs))
	for _, id := range req.IDs {
		unique[id] = struct{}{}
	}
	n, err := s.eng.Evict(r.Context(), req.IDs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EvictResponse{Evicted: n, AlreadyDead: len(unique) - n})
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	withMembers := true
	if v := r.URL.Query().Get("members"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad members=%q", v)
			return
		}
		withMembers = b
	}
	// One pinned read per shard, so n, commits and the cluster list stay
	// coherent even while commits land concurrently (with multiple shards
	// the sums aggregate one coherent generation per shard).
	clusters, n, commits := s.eng.ClustersWithMeta()
	writeJSON(w, http.StatusOK, ClustersResponse{
		N:        n,
		Commits:  commits,
		Clusters: ClustersFromCore(clusters, withMembers),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.eng.Stats()
	chainLen := 0
	if s.opts.DeltaChainLen != nil {
		chainLen = s.opts.DeltaChainLen()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		N:                st.N,
		LiveN:            st.LiveN,
		Dim:              st.Dim,
		Clusters:         st.Clusters,
		Commits:          st.Commits,
		Evicted:          st.Evicted,
		QueuedPoints:     st.QueuedPoints,
		Assigns:          st.Assigns,
		Ingested:         st.Ingested,
		AffinityComputed: st.AffinityComputed,
		WriterErrors:     st.WriterErrors,
		UptimeSeconds:    int64(time.Since(s.start).Seconds()),
		Generation:       st.Generation,
		EverSeenIDs:      st.EverSeenIDs,
		DeltaChainLen:    chainLen,
		AssignP50Seconds: st.AssignP50,
		AssignP95Seconds: st.AssignP95,
		AssignP99Seconds: st.AssignP99,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
