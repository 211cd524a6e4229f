// Package engine is the concurrency-safe serving layer over the streaming
// clusterer: the first subsystem on the serving half of the roadmap.
//
// It follows an RCU (read-copy-update) discipline. All reads — Assign,
// Clusters, Labels, Stats — run lock-free against an immutable published
// state loaded from one atomic pointer, so query throughput scales with
// cores and readers NEVER block the writer. A single writer goroutine owns
// the stream.Clusterer: it drains the ingest queue, commits batches, and
// publishes a fresh immutable view after every commit (stream.View's
// copy-on-write contract keeps already-published views frozen while the
// writer's matrix and index advance).
//
// Commit-side detection fans each detection's inner loops out over
// Config.Core.Pool, the deterministic intra-detection parallel layer, and
// the initial commit in New peels its LSH components concurrently on a
// GOMAXPROCS-wide pool whatever that pool is (see package stream). Neither
// changes any published result, and neither involves the reader paths,
// which stay lock-free.
//
// The new read path is Assign: hash a query point into the published LSH
// index, retrieve co-bucketed candidates, and score the query's π-affinity
// g(q, x) = Σ_t w_t·a(q, s_t) against every maintained cluster that owns a
// candidate — all without mutating any state. By Theorem 1 of the paper,
// g(q, x) > π(x) means q is infective against x (the cluster would absorb
// it); the serving answer is the cluster maximizing g.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/lid"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/minhash"
	"alid/internal/obs"
	"alid/internal/stream"
	"alid/internal/vec"
)

// Config controls the serving engine.
type Config struct {
	// Core is the ALID configuration applied to every (re-)detection.
	Core core.Config
	// BatchSize is the stream commit batch (default 256).
	BatchSize int
	// QueueSize bounds the ingest queue in requests (default 1024). Ingest
	// blocks (honoring its context) when the queue is full.
	QueueSize int
	// Retention bounds the live committed point set (see stream.Retention):
	// with a retention policy a forever-running daemon's memory stays
	// proportional to the window, not to the points ever ingested.
	Retention stream.Retention
	// CompactEvictedShare, when > 0, auto-triggers a generation compaction
	// through the writer queue whenever a commit or eviction leaves more
	// than this share of committed ids tombstoned (e.g. 0.5 compacts once
	// half the id space is dead). Compaction renumbers the live points into
	// a fresh dense generation, releasing all bookkeeping that scaled with
	// points ever seen — what keeps a retention-bounded stream's memory flat
	// over unbounded uptime. 0 disables compaction.
	CompactEvictedShare float64
	// Obs is the metrics registry the engine (and its clusterer) register
	// into; nil makes the engine create a private one, retrievable via
	// Obs() — the daemon serves it at GET /metrics either way. Metrics are
	// diagnostics only: no decision on any deterministic path reads one.
	Obs *obs.Registry
	// Logger, when non-nil, receives structured writer-side log lines (one
	// per published generation, at Debug). Reads never log.
	Logger *slog.Logger
	// ShardLabel, when non-empty, is this engine's shard name ("0", "1", …):
	// every metric family the engine registers gains a constant `shard="…"`
	// label, which is what lets the N engines of a Sharded router share one
	// registry without name+label collisions. Purely observability — no
	// serving decision reads it.
	ShardLabel string
}

// shardFrag renders Config.ShardLabel as a pre-rendered label fragment
// (empty stays empty, so unsharded engines keep their PR-7 metric names).
func shardFrag(shard string) string {
	if shard == "" {
		return ""
	}
	return `shard="` + shard + `"`
}

// Serving is the surface the HTTP layer programs against: the single-engine
// Engine and the N-engine Sharded router (which the daemon always serves,
// at any -shards) both implement it, so either can sit behind one server. The
// semantics of every method match Engine's documentation; Sharded documents
// where aggregation changes the observable behavior (global ids, merged
// answers, summed stats).
type Serving interface {
	Dim() int
	Assign(q []float64) (Assignment, error)
	AssignBatch(qs [][]float64) ([]Assignment, error)
	AssignBatchInto(qs [][]float64, out []Assignment) ([]Assignment, error)
	Ingest(ctx context.Context, pts [][]float64) error
	Flush(ctx context.Context) error
	Evict(ctx context.Context, ids []int) (int, error)
	Clusters() []*core.Cluster
	ClustersWithMeta() (clusters []*core.Cluster, n, commits int)
	Stats() Stats
	Config() Config
	Obs() *obs.Registry
	Close() error
}

// Assignment is the answer of the Assign read path.
type Assignment struct {
	// Cluster is the index of the winning cluster in Clusters(), or -1 when
	// no maintained cluster shares an LSH bucket with the query (noise).
	Cluster int
	// Score is g(q, x) = Σ_t w_t·a(q, s_t), the query's π-affinity against
	// the winning cluster.
	Score float64
	// Density is the winning cluster's π(x).
	Density float64
	// Infective reports Score − Density > tol: by Theorem 1 the cluster
	// would absorb the query if it were ingested.
	Infective bool
	// Candidates is the number of LSH candidates retrieved (diagnostics).
	Candidates int
}

// Stats is a point-in-time summary of the engine.
type Stats struct {
	// N is the number of committed points; Dim their dimensionality.
	N, Dim int
	// Clusters is the number of maintained dominant clusters.
	Clusters int
	// Commits counts batch commits since the stream began.
	Commits int
	// LiveN is the number of committed points that have not been evicted
	// (N counts every point ever committed — ids are stable).
	LiveN int
	// Evicted is the number of tombstoned committed points in the published
	// view (N − LiveN): manual evictions, retention expiries and tombstones
	// restored from a snapshot alike.
	Evicted int64
	// QueuedPoints is the exact number of ingested-but-uncommitted points
	// (in the ingest queue or the writer's buffer): the atomic counter is
	// incremented when Ingest accepts points and decremented when a commit
	// consumes them into the matrix (or the writer rejects an invalid one).
	QueuedPoints int64
	// Assigns and Ingested count Assign calls and accepted points. Exact:
	// each is a single atomic incremented at the accept point.
	Assigns, Ingested int64
	// AffinityComputed counts kernel evaluations: assign-path scoring across
	// all published states plus the stream's commit-side work (dirtiness
	// checks, detection and eviction repair); alid_kernel_evals_total
	// exports the two parts as its path="assign" and path="commit" series.
	// Racy-read: it sums three sources (retired states, the published view,
	// the live oracle) that advance while Stats runs, so consecutive calls
	// can regress slightly. Restored engines restart the commit-side count
	// at zero.
	AffinityComputed int64
	// WriterErrors counts commit/ingest failures inside the writer; the
	// most recent one is returned by the next Flush.
	WriterErrors int64
	// AssignP50/P95/P99 are single-point Assign latency quantiles in
	// seconds, derived from the engine's power-of-two latency histogram
	// (upper-bound interpolation within a bucket; zero until the first
	// assign, and always zero under the noobs build tag).
	AssignP50, AssignP95, AssignP99 float64
	// Generation is the published id-renumbering epoch: a generation
	// compaction (CompactEvictedShare) bumps it and reassigns every id
	// densely over the survivors. A sharded engine reports the sum of its
	// shard generations, which moves whenever any shard renumbers.
	Generation int
	// EverSeenIDs counts ids ever minted across all generations — the
	// quantity resident bookkeeping NO LONGER scales with once compaction
	// runs (watch alid_ever_seen_ids grow while alid_points{state="committed"}
	// stays flat).
	EverSeenIDs int
}

// state is one immutable published generation.
type state struct {
	view   stream.View
	oracle *affinity.Oracle // nil until the first commit
	dim    int
	pool   sync.Pool // *scratch sized for this generation, for both assign forms
	// bidx is the batch form's candidate-retrieval structure (bucket→cluster
	// summaries and packed member rows), built lazily by the first batch
	// against this generation — never at publish time, so commit latency
	// stays O(batch). Access via batchIdx().
	bidxOnce sync.Once
	bidx     *batchIndex
}

// scratch is per-goroutine read-path workspace, pooled per state so steady
// Assign and AssignBatch traffic allocates nothing.
type scratch struct {
	sig   []int64  // LSH signature
	keys  []uint64 // per-table bucket keys (batch form)
	mark  []uint32 // per-point dedup marker, len N (single form)
	cmark []uint32 // per-cluster dedup marker
	gen   uint32
	cand  []int32 // deduplicated candidate points (single form)
	cids  []int32 // candidate clusters, first-seen order
	col   []float64
}

// reserve returns the first of k fresh marker generations. Before the
// counter would wrap it clears BOTH marker arrays: either form may run next
// on this scratch, and a stale point marker equal to a reused generation
// would make the single form skip a live candidate.
func (sc *scratch) reserve(k int) uint32 {
	if sc.gen > math.MaxUint32-uint32(k) {
		clear(sc.mark)
		clear(sc.cmark)
		sc.gen = 0
	}
	first := sc.gen + 1
	sc.gen += uint32(k)
	return first
}

// colFor returns the column scratch resized to n entries (allocation-free
// once warmed to the largest cluster).
func (sc *scratch) colFor(n int) []float64 {
	if cap(sc.col) < n {
		sc.col = make([]float64, n)
	}
	return sc.col[:n]
}

type reqKind int

const (
	reqIngest reqKind = iota
	reqFlush
	reqEvict
)

type request struct {
	kind   reqKind
	pts    [][]float64
	ids    []int          // evict only
	reply  chan error     // flush only
	ereply chan evictDone // evict only
}

type evictDone struct {
	n   int
	err error
}

// Engine serves dominant-cluster queries over a live stream. Safe for
// concurrent use: any number of goroutines may call the read and ingest
// methods; one internal goroutine performs all mutation.
type Engine struct {
	cfg   Config
	tol   float64
	state atomic.Pointer[state]
	reqs  chan request
	stop  chan struct{}
	done  chan struct{}

	// closeMu orders senders against Close: senders hold the read lock for
	// the closed-check plus the enqueue, so once Close holds the write lock
	// and flips closed, no send can slip in after the writer's final drain.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once
	closeErr  error

	assigns      atomic.Int64
	ingested     atomic.Int64
	queued       atomic.Int64
	pastComputed atomic.Int64 // kernel evals of superseded states
	writerErrs   atomic.Int64
	lastErr      atomic.Pointer[error] // consumed by Flush

	obsReg *obs.Registry  // the registry every engine metric lives in
	met    *engineMetrics // serve-path instrumentation, always non-nil
	logger *slog.Logger   // nil = silent

	clusterer *stream.Clusterer // owned by the writer goroutine
}

// New builds an engine, synchronously commits the optional initial batch
// (so Assign works the moment New returns), and starts the writer.
// Zero-valued Kernel/LSH configs are replaced by the library defaults here
// (the stream layer builds its index from the literal config, so leaving
// them zero would fail at the first commit deep inside the writer).
func New(cfg Config, initial [][]float64) (*Engine, error) {
	p, err := prepare(cfg, initial)
	if err != nil {
		return nil, err
	}
	if err := p.commit(); err != nil {
		return nil, err
	}
	return start(p.cfg, p.reg, p.c), nil
}

// prepared is an engine between New's three steps: prepare has checked and
// defaulted its config and built its clusterer over the initial batch,
// which registers the stream's metric families; commit runs the initial
// commit; start registers the engine's own families, publishes and starts
// the writer. NewSharded runs the commits of all shards concurrently
// between the other two steps, which it runs in shard order, so every
// family still lists its samples in shard order.
type prepared struct {
	cfg Config
	reg *obs.Registry
	c   *stream.Clusterer
}

// prepare is New's first step.
func prepare(cfg Config, initial [][]float64) (prepared, error) {
	if cfg.Core.Kernel == (affinity.Kernel{}) {
		cfg.Core.Kernel = affinity.DefaultKernel()
	}
	if err := cfg.Core.Kernel.Validate(); err != nil {
		return prepared{}, fmt.Errorf("engine: %w", err)
	}
	switch index.Normalize(cfg.Core.Backend) {
	case index.BackendLSH:
		if cfg.Core.LSH == (lsh.Config{}) {
			cfg.Core.LSH = lsh.DefaultConfig()
		}
		if err := cfg.Core.LSH.Validate(); err != nil {
			return prepared{}, fmt.Errorf("engine: %w", err)
		}
	case index.BackendMinHash:
		if cfg.Core.MinHash == (minhash.Config{}) {
			cfg.Core.MinHash = minhash.DefaultConfig()
		}
		if err := cfg.Core.MinHash.Validate(); err != nil {
			return prepared{}, fmt.Errorf("engine: %w", err)
		}
	default:
		return prepared{}, fmt.Errorf("engine: unknown index backend %q", cfg.Core.Backend)
	}
	// Default the registry into a local, never into the stored config: a
	// config recovered via Engine.Config must stay re-usable for a second
	// engine without colliding on metric registration.
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c, err := stream.New(initial, stream.Config{Core: cfg.Core, BatchSize: cfg.BatchSize, Retention: cfg.Retention, Obs: reg, ObsLabels: shardFrag(cfg.ShardLabel)})
	if err != nil {
		return prepared{}, fmt.Errorf("engine: %w", err)
	}
	return prepared{cfg: cfg, reg: reg, c: c}, nil
}

// commit is New's second step: the commit of the initial batch (a no-op
// without one).
func (p prepared) commit() error {
	if err := p.c.Commit(context.Background()); err != nil {
		return fmt.Errorf("engine: initial commit: %w", err)
	}
	return nil
}

// RestoreGeneration builds an engine from persisted state — the
// crash-restart path: the matrix, index and clusters come back exactly as
// published, with no re-detection, together with the id-lifecycle
// counters: the generation number and the count of ids retired by past
// compactions (v5 snapshots carry both; older formats restore at generation
// 0 with no retired ids). Ownership of all arguments transfers to the
// engine.
func RestoreGeneration(cfg Config, mat *matrix.Matrix, idx index.Index, clusters []*core.Cluster, labels []int, commits, generation, retired int) (*Engine, error) {
	reg := cfg.Obs // see New: defaulted locally, never stored back
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c, err := stream.RestoreGeneration(stream.Config{Core: cfg.Core, BatchSize: cfg.BatchSize, Retention: cfg.Retention, Obs: reg, ObsLabels: shardFrag(cfg.ShardLabel)}, mat, idx, clusters, labels, commits, generation, retired)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return start(cfg, reg, c), nil
}

// start is New's third step, and RestoreGeneration's last: it registers
// the engine's metric families, publishes the first state and starts the
// writer.
func start(cfg Config, reg *obs.Registry, c *stream.Clusterer) *Engine {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	tol := cfg.Core.Tol
	if tol <= 0 {
		tol = lid.DefaultTolerance
	}
	e := &Engine{
		cfg:       cfg,
		tol:       tol,
		reqs:      make(chan request, cfg.QueueSize),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		obsReg:    reg,
		met:       newEngineMetrics(reg, shardFrag(cfg.ShardLabel)),
		logger:    cfg.Logger,
		clusterer: c,
	}
	e.registerEngineFuncs(reg, shardFrag(cfg.ShardLabel))
	e.publish()
	go e.run()
	return e
}

// publish freezes the clusterer's current state into a new immutable
// generation and swaps it in. Writer-goroutine only (and construction).
func (e *Engine) publish() {
	v := e.clusterer.View()
	st := &state{view: v}
	if v.Mat != nil {
		st.dim = v.Mat.D
		// The kernel was already validated by the commit that produced this
		// view, so NewOracleMatrix cannot fail here; normalize the zero
		// kernel the same way the detector does.
		kern := e.cfg.Core.Kernel
		if kern == (affinity.Kernel{}) {
			kern = affinity.DefaultKernel()
		}
		o, err := affinity.NewOracleMatrix(v.Mat, kern)
		if err != nil {
			panic(fmt.Sprintf("engine: publish: %v", err))
		}
		st.oracle = o
		n, nClusters := v.Mat.N, len(v.Clusters)
		mu, tables := 0, 0
		if v.Index != nil {
			mu, tables = v.Index.SigLen(), v.Index.Tables()
		}
		st.pool.New = func() any {
			return &scratch{
				sig:   make([]int64, mu),
				keys:  make([]uint64, tables),
				mark:  make([]uint32, n),
				cmark: make([]uint32, nClusters),
			}
		}
	}
	if old := e.state.Swap(st); old != nil && old.oracle != nil {
		e.pastComputed.Add(old.oracle.Computed())
	}
	if e.logger != nil && e.logger.Enabled(context.Background(), slog.LevelDebug) {
		n, live := 0, 0
		if st.view.Mat != nil {
			n, live = st.view.Mat.N, st.view.Mat.LiveCount()
		}
		e.logger.LogAttrs(context.Background(), slog.LevelDebug, "published",
			slog.Int("commits", st.view.Commits),
			slog.Int("n", n),
			slog.Int("live", live),
			slog.Int("clusters", len(st.view.Clusters)),
			slog.Int64("queued", e.queued.Load()),
		)
	}
}

// run is the single writer: it drains the ingest queue, lets the stream
// auto-commit full batches, commits the remainder once the queue is idle
// (batching under load, low latency when quiet), and publishes after every
// change.
func (e *Engine) run() {
	defer close(e.done)
	ctx := context.Background()
	for {
		select {
		case req := <-e.reqs:
			e.handle(ctx, req)
		case <-e.stop:
			// Drain whatever is already queued, final-commit, and exit.
			for {
				select {
				case req := <-e.reqs:
					e.handle(ctx, req)
				default:
					e.settle(ctx)
					return
				}
			}
		}
		// Opportunistic batching: consume everything queued before deciding
		// whether a partial batch needs a commit.
	drain:
		for {
			select {
			case req := <-e.reqs:
				e.handle(ctx, req)
			default:
				break drain
			}
		}
		e.settle(ctx)
		// Retention expiry inside the commit can push the evicted share past
		// the compaction threshold without an explicit Evict call.
		e.maybeCompact()
	}
}

// handle processes one queued request (writer goroutine only).
func (e *Engine) handle(ctx context.Context, req request) {
	switch req.kind {
	case reqIngest:
		before := e.clusterer.Commits()
		for _, p := range req.pts {
			// Exact queued accounting: the invariant is queued == points in
			// the channel + the writer's buffer. This point leaves the
			// channel here; the pending delta says whether it entered the
			// buffer (±0), was rejected (−1), or a commit consumed the whole
			// buffer (−pending−1).
			pending := e.clusterer.Pending()
			err := e.clusterer.Add(ctx, p)
			e.queued.Add(int64(e.clusterer.Pending() - pending - 1))
			if err != nil {
				e.recordErr(err)
			} else {
				e.ingested.Add(1)
			}
		}
		if e.clusterer.Commits() != before {
			e.publish()
		}
	case reqFlush:
		e.settle(ctx)
		// Compact before replying, as Evict does: a commit whose retention
		// expiry crossed the share is renumbered by the time Flush returns,
		// instead of racing the caller's next request into the same drain.
		e.maybeCompact()
		var err error
		if p := e.lastErr.Swap(nil); p != nil {
			err = *p
		}
		req.reply <- err
	case reqEvict:
		// Settle first so ids the caller just ingested-and-flushed cannot
		// race the eviction, then evict and publish the shrunk view.
		e.settle(ctx)
		n, err := e.clusterer.Evict(ctx, req.ids)
		if n > 0 {
			e.publish()
		}
		// Compact BEFORE replying: an eviction that crosses the share
		// threshold is renumbered by the time Evict returns, so callers see
		// the new generation deterministically.
		e.maybeCompact()
		req.ereply <- evictDone{n: n, err: err}
	}
}

// maybeCompact triggers a generation compaction from the writer goroutine
// when the configured evicted share is exceeded. Errors are surfaced through
// the usual writer-error channel; a failed compaction leaves the clusterer
// untouched, so the next trigger simply retries.
func (e *Engine) maybeCompact() {
	if e.cfg.CompactEvictedShare <= 0 {
		return
	}
	n := e.clusterer.N()
	if n == 0 {
		return
	}
	if share := float64(n-e.clusterer.Live()) / float64(n); share <= e.cfg.CompactEvictedShare {
		return
	}
	released, err := e.clusterer.CompactGeneration()
	if err != nil {
		e.recordErr(err)
		return
	}
	if released > 0 {
		e.publish()
	}
}

// settle commits any buffered points and publishes if the stream advanced.
func (e *Engine) settle(ctx context.Context) {
	if e.clusterer.Pending() == 0 {
		return
	}
	before := e.clusterer.Commits()
	pending := e.clusterer.Pending()
	err := e.clusterer.Commit(ctx)
	e.queued.Add(int64(e.clusterer.Pending() - pending))
	if err != nil {
		e.recordErr(err)
	}
	if e.clusterer.Commits() != before {
		e.publish()
	}
}

func (e *Engine) recordErr(err error) {
	e.writerErrs.Add(1)
	e.lastErr.Store(&err)
}

// Dim returns the engine's point dimensionality (0 before the first commit).
func (e *Engine) Dim() int {
	if st := e.state.Load(); st != nil {
		return st.dim
	}
	return 0
}

// queryErr is the single validation gate shared by the single-point and
// batched Assign paths and NewSharded's initial batch: the dimension check
// and matrix.Finite, the rule the matrix constructors apply (a point whose
// squared norm is NaN or ±Inf would make every score NaN and no cluster
// comparable).
func queryErr(q []float64, dim int) error {
	if len(q) != dim {
		return fmt.Errorf("point has dimension %d, want %d", len(q), dim)
	}
	if !matrix.Finite(q) {
		return fmt.Errorf("point is not finite")
	}
	return nil
}

// ingestErr is the edge check Engine.Ingest and Sharded.Ingest share. It
// refuses exactly what the writer's stream.Clusterer.Add refuses (an empty
// point, a wrong width, a point matrix.Finite rejects), so the writer never
// drops a point the caller was told it accepted.
func ingestErr(pts [][]float64, dim int) error {
	for i, p := range pts {
		if len(p) == 0 {
			return fmt.Errorf("engine: point %d is empty", i)
		}
		if len(p) != dim {
			return fmt.Errorf("engine: point %d has dimension %d, want %d", i, len(p), dim)
		}
		if !matrix.Finite(p) {
			return fmt.Errorf("engine: point %d is not finite", i)
		}
	}
	return nil
}

// Assign classifies a query point against the maintained dominant clusters:
// lock-free, mutation-free, safe for unlimited concurrency. A query in an
// empty engine, or one sharing no LSH bucket with any clustered point,
// returns Cluster = -1.
//
// Every candidate cluster is scored exactly over its full support, in member
// order; the first strict maximum in first-seen candidate order wins.
func (e *Engine) Assign(q []float64) (Assignment, error) {
	a, _, err := e.assignPinned(q)
	return a, err
}

// assignPinned is Assign pinned to ONE published generation: it additionally
// reports that generation's maintained-cluster count, read from the same
// atomic state load that produced the answer. The sharded router needs the
// pair to be coherent — it offsets per-shard cluster ids by the prefix sum
// of shard cluster counts, and an answer paired with a count from a
// different generation would mistranslate the winning id.
func (e *Engine) assignPinned(q []float64) (Assignment, int, error) {
	st := e.state.Load()
	// A nil index can be published if an index build failed mid-commit
	// (the matrix lands before the index); such a state is not servable —
	// answer noise rather than crash, and let the next commit repair it.
	if st == nil || st.view.Mat == nil || st.view.Index == nil {
		return Assignment{Cluster: -1}, 0, nil
	}
	nClusters := len(st.view.Clusters)
	if err := queryErr(q, st.dim); err != nil {
		return Assignment{}, nClusters, fmt.Errorf("engine: %w", err)
	}
	e.assigns.Add(1)
	start := obs.Now()
	sc := st.pool.Get().(*scratch)
	a := e.assignOne(st, sc, q)
	st.pool.Put(sc)
	e.met.assignSingle.ObserveSince(start)
	return a, nClusters, nil
}

// assignOne is the single form's walk over a pre-validated query: candidate
// points from QueryInto (table by table, bucket members ascending), their
// clusters in first-seen order, each scored over its full support.
func (e *Engine) assignOne(st *state, sc *scratch, q []float64) Assignment {
	gen := sc.reserve(1)
	sc.cand = st.view.Index.QueryInto(q, sc.sig, sc.cand[:0], sc.mark, gen)
	sc.cids = sc.cids[:0]
	for _, id := range sc.cand {
		ci := st.view.Labels.At(int(id))
		if ci < 0 || sc.cmark[ci] == gen {
			continue
		}
		sc.cmark[ci] = gen
		sc.cids = append(sc.cids, int32(ci))
	}
	e.met.candPoints.Observe(int64(len(sc.cand)))

	qNormSq := vec.Dot(q, q)
	best, bestScore := -1, math.Inf(-1)
	for _, ci := range sc.cids {
		cl := st.view.Clusters[ci]
		col := sc.colFor(len(cl.Members))
		st.oracle.ColumnPoint(q, qNormSq, cl.Members, col)
		var score float64
		for t, w := range cl.Weights {
			score += w * col[t]
		}
		if score > bestScore {
			best, bestScore = int(ci), score
		}
	}
	e.met.scanExact.Add(int64(len(sc.cids)))
	if best < 0 {
		e.met.noise.Inc()
	}
	return e.answer(st, best, bestScore, len(sc.cand))
}

// answer is the Assignment for winning cluster best of the given score, or
// noise when best < 0.
func (e *Engine) answer(st *state, best int, score float64, candidates int) Assignment {
	if best < 0 {
		return Assignment{Cluster: -1, Candidates: candidates}
	}
	cl := st.view.Clusters[best]
	return Assignment{
		Cluster:    best,
		Score:      score,
		Density:    cl.Density,
		Infective:  score-cl.Density > e.tol,
		Candidates: candidates,
	}
}

// Ingest enqueues points for the writer. It blocks only when the queue is
// full (honoring ctx). Points are validated against the engine's known
// dimensionality at this edge; the async commit re-validates authoritatively.
func (e *Engine) Ingest(ctx context.Context, pts [][]float64) error {
	if len(pts) == 0 {
		return nil
	}
	dim := e.Dim()
	if dim == 0 {
		dim = len(pts[0])
	}
	if err := ingestErr(pts, dim); err != nil {
		return err
	}
	// Copy the rows: the caller may recycle its buffers (HTTP handlers do).
	cp := make([][]float64, len(pts))
	for i, p := range pts {
		cp[i] = append(make([]float64, 0, len(p)), p...)
	}
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return fmt.Errorf("engine: closed")
	}
	e.queued.Add(int64(len(cp)))
	waitStart := obs.Now()
	// The writer cannot exit while we hold the read lock (Close flips the
	// flag under the write lock before stopping it), so an accepted send is
	// guaranteed to be drained.
	select {
	case e.reqs <- request{kind: reqIngest, pts: cp}:
		e.met.ingestWait.ObserveSince(waitStart)
		return nil
	case <-ctx.Done():
		e.queued.Add(int64(-len(cp)))
		return ctx.Err()
	}
}

// Flush waits until everything enqueued before the call is committed and
// published, and compacted when the commit pushed the evicted share past
// CompactEvictedShare, and returns the most recent writer error (nil if
// none).
func (e *Engine) Flush(ctx context.Context) error {
	reply := make(chan error, 1)
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return fmt.Errorf("engine: closed")
	}
	var sendErr error
	select {
	case e.reqs <- request{kind: reqFlush, reply: reply}:
	case <-ctx.Done():
		sendErr = ctx.Err()
	}
	e.closeMu.RUnlock()
	if sendErr != nil {
		return sendErr
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Evict tombstones committed points by id, routed through the single-writer
// queue like every other mutation: published views stay immutable, readers
// keep serving the pre-eviction generation until the shrunk view is
// published. It waits for the eviction to complete and returns the number
// of points newly evicted (already-dead ids are skipped; out-of-range ids
// are an error). See stream.Clusterer.Evict for the repair semantics.
func (e *Engine) Evict(ctx context.Context, ids []int) (int, error) {
	reply := make(chan evictDone, 1)
	cp := append([]int(nil), ids...)
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return 0, fmt.Errorf("engine: closed")
	}
	var sendErr error
	select {
	case e.reqs <- request{kind: reqEvict, ids: cp, ereply: reply}:
	case <-ctx.Done():
		sendErr = ctx.Err()
	}
	e.closeMu.RUnlock()
	if sendErr != nil {
		return 0, sendErr
	}
	select {
	case done := <-reply:
		return done.n, done.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Close stops the writer after draining the queue and committing buffered
// points. Further Ingest/Flush calls fail; reads keep serving the final
// published state.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		// Take the write lock so no sender is mid-enqueue, flip the flag so
		// later senders fail fast, and only then stop the writer: everything
		// accepted before this point is in the queue and will be drained.
		e.closeMu.Lock()
		e.closed = true
		e.closeMu.Unlock()
		close(e.stop)
		<-e.done
		if p := e.lastErr.Swap(nil); p != nil {
			e.closeErr = *p
		}
	})
	return e.closeErr
}

// Clusters returns the published dominant clusters. The slice is fresh; the
// cluster values are the immutable published ones and must not be mutated.
func (e *Engine) Clusters() []*core.Cluster {
	st := e.state.Load()
	if st == nil {
		return nil
	}
	return append([]*core.Cluster(nil), st.view.Clusters...)
}

// ClustersWithMeta returns the published dominant clusters together with the
// committed point count and commit counter of the SAME generation — one
// atomic state load, so the three stay coherent even while commits land
// concurrently (the /v1/clusters handler's contract).
func (e *Engine) ClustersWithMeta() (clusters []*core.Cluster, n, commits int) {
	st := e.state.Load()
	if st == nil {
		return nil, 0, 0
	}
	if st.view.Mat != nil {
		n = st.view.Mat.N
	}
	return append([]*core.Cluster(nil), st.view.Clusters...), n, st.view.Commits
}

// View returns the current published immutable view (snapshot persistence
// reads from this — never from the writer's live state).
func (e *Engine) View() stream.View {
	st := e.state.Load()
	if st == nil {
		return stream.View{}
	}
	return st.view
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Obs returns the engine's metrics registry (the configured one, or the
// registry the engine created for itself when Config.Obs was nil). Serve it
// with obs.Registry.Handler to expose Prometheus text exposition.
func (e *Engine) Obs() *obs.Registry { return e.obsReg }

// Stats returns a point-in-time summary. Each counter is individually
// atomic and exact (QueuedPoints, Assigns, Ingested, WriterErrors), but the
// set is not a consistent snapshot: fields read from the published state
// (N, Clusters, Commits, …) may belong to a newer or older generation than
// the counters, and AffinityComputed aggregates sources that advance
// concurrently. Treat the result as monitoring data, not as an invariant.
func (e *Engine) Stats() Stats {
	s := Stats{
		QueuedPoints: e.queued.Load(),
		Assigns:      e.assigns.Load(),
		Ingested:     e.ingested.Load(),
		WriterErrors: e.writerErrs.Load(),
	}
	s.AssignP50 = e.met.assignSingle.Quantile(0.50)
	s.AssignP95 = e.met.assignSingle.Quantile(0.95)
	s.AssignP99 = e.met.assignSingle.Quantile(0.99)
	s.AffinityComputed = e.pastComputed.Load()
	if st := e.state.Load(); st != nil {
		s.Dim = st.dim
		s.Clusters = len(st.view.Clusters)
		s.Commits = st.view.Commits
		s.AffinityComputed += st.view.KernelEvals
		s.Generation = st.view.Generation
		s.EverSeenIDs = st.view.EverSeenIDs
		if st.view.Mat != nil {
			s.N = st.view.Mat.N
			s.LiveN = st.view.Mat.LiveCount()
			s.Evicted = int64(s.N - s.LiveN)
		}
		if st.oracle != nil {
			s.AffinityComputed += st.oracle.Computed()
		}
	}
	return s
}
