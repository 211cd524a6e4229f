// This file is the in-process sharded serving layer: Sharded wraps N
// independent Engines — each with its own single-writer queue, LSH index and
// RCU snapshot chain — behind the same Serving surface as one Engine.
//
// The three single-core ceilings it breaks:
//
//   - Write throughput: every ingested point belongs to exactly one shard,
//     so N writer goroutines commit concurrently instead of one. Commit
//     cost per shard also shrinks (each index holds ~1/N of the points).
//   - Assign latency on multicore: one query fans out to all shards through
//     par.Pool.Each and the per-shard scans run in parallel over
//     N-times-smaller indexes.
//   - Set-up and restore: NewSharded commits every shard's initial batch,
//     LoadSharded replays every shard's chain and ChainWriter.Save writes
//     every shard's files on the same pool. Metric registration, writer
//     start, the choice of error and every merge stay in shard order, so
//     /metrics lists each family's samples in shard order and a failure
//     reports the lowest failing shard, as a shard-by-shard loop would.
//
// Routing and id stability. The router mints globally-unique point ids:
// the j-th point accepted by shard s has global id j·N + s, so
// shard = id mod N and local = id div N forever — the PR 5 stable-id
// invariant extended across the shard boundary (ids never move between
// shards, evictions tombstone in place). Arrivals are placed round-robin
// from a cursor, so on the never-failed path the k-th accepted point lands
// on shard k mod N with global id exactly k — identical numbering to an
// unsharded engine. Per-shard id spaces are disjoint by construction, so a
// partially delivered ingest (context cancelled on a full shard queue) can
// skew the balance but can never collide or desynchronize ids.
//
// Determinism. Assign and AssignBatch scatter to every shard, pin ONE
// published generation per shard (assignPinned), and merge by best affinity
// score with a deterministic tie-break: on equal scores the LOWEST shard
// index wins, the shard-level analogue of the engine's first-seen candidate
// order. Winning cluster ids are translated to global ids by offsetting with
// the prefix sum of per-shard cluster counts (shard 0's clusters first), the
// same order ClustersWithMeta concatenates in. The merge iterates shards in
// index order over slot-indexed scatter results, so answers are
// bit-identical at any GOMAXPROCS — and a 1-shard router answers
// bit-identically to its inner Engine. Per-shard answers are exact (PR 6),
// so the merged winner is the best-scoring cluster across ALL shards over
// the union of the shards' candidates: exactly the DALID partition argument
// (paper §5) — partitions are scored independently and only the maximum
// survives the merge. What sharding does change is detection itself: each
// shard detects clusters over its own partition, so the maintained cluster
// STRUCTURE at N > 1 matches N independent engines fed the routed subsets,
// not one engine fed everything (engine/shardcross_test.go pins exactly that
// contract).
//
// Aggregation. Stats sums per-shard counters (Assigns comes from the
// router: each logical query touches all N shards, and the per-shard
// alid_assigns_total{shard=…} counters reflect that fan-out).
// ClustersWithMeta concatenates in shard order with member/seed ids
// translated to global ids. Evict routes each global id to its owning
// shard. Every shard registers its metric families into one shared
// registry, with a constant shard="…" label when N > 1 (at N = 1 the
// series are exactly a plain engine's), and the router adds
// alid_ingest_queue_depth{shard="…"} (per-shard backlog, the serve-load
// balance diagnostic), alid_shards, and alid_gather_duration_seconds.
package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"alid/internal/core"
	"alid/internal/obs"
	"alid/internal/par"
	"alid/internal/stream"
)

// Both the single engine and the sharded router satisfy the Serving surface
// the daemon and HTTP layer program against.
var (
	_ Serving = (*Engine)(nil)
	_ Serving = (*Sharded)(nil)
)

// ShardedConfig sizes the sharded router.
type ShardedConfig struct {
	// Engine is the per-shard template. Obs (defaulted to one fresh registry)
	// is shared by every shard; ShardLabel is overwritten per shard (and
	// left empty at one shard);
	// Retention.MaxPoints is the TOTAL live-point budget, split evenly
	// (ceiling) across shards; Logger gains a per-shard attribute.
	Engine Config
	// Shards is the number of independent engines (≥ 1). The shard count is
	// part of the persisted layout: ids embed it, so a saved manifest can
	// only be restored at the same count (snapshot.ErrShardCountMismatch).
	Shards int
}

// shardBatch is one shard's slot in a scattered Assign or AssignBatch: the
// answers and the cluster count of the SAME pinned generation, plus the
// shard's error (merged deterministically — lowest shard index wins).
type shardBatch struct {
	out      []Assignment
	clusters int
	err      error
}

// gatherScratch is the pooled per-call scatter workspace: slot arrays for
// the gather plus per-shard answer arenas (grow-only), so steady
// scatter-gather traffic allocates nothing at the router layer. The
// per-shard bodies are method values bound once when the scratch is made:
// a closure built per call would escape to the heap, because par.Pool.Each
// may hand it to a helper goroutine, and cost an allocation per call even
// at one shard. The call's query or batch rides in the scratch instead.
type gatherScratch struct {
	slots []shardBatch
	bouts [][]Assignment // per-shard answer arenas, recycled across calls
	offs  []int          // cluster-count prefix sums, len n+1

	shards     []*Engine
	q          []float64   // the query of the Assign in flight
	qs         [][]float64 // the batch of the AssignBatchInto in flight
	assignOne  func(worker, shard int)
	assignMany func(worker, shard int)
}

// assignShard is Assign's per-shard body: shard i's answer to gs.q, pinned
// to one published generation.
func (gs *gatherScratch) assignShard(_, i int) {
	a, nc, err := gs.shards[i].assignPinned(gs.q)
	gs.bouts[i] = append(gs.bouts[i][:0], a)
	gs.slots[i] = shardBatch{out: gs.bouts[i], clusters: nc, err: err}
}

// assignShardBatch is AssignBatchInto's per-shard body: shard i's answers
// to the whole of gs.qs, pinned to one published generation.
func (gs *gatherScratch) assignShardBatch(_, i int) {
	o, nc, err := gs.shards[i].assignBatchPinned(gs.qs, gs.bouts[i])
	if o != nil {
		gs.bouts[i] = o // keep the grown arena for the next batch
	}
	gs.slots[i] = shardBatch{out: o, clusters: nc, err: err}
}

// merge folds the per-shard answers of nq queries into out (resliced to
// out[:0]): per query the best score wins with ties to the LOWEST shard
// (strictly-greater keeps the earlier shard), the winning cluster id is
// offset by the cluster counts of all lower shards, and Candidates sums
// the shards' diagnostics. Shard errors resolve by lowest shard index.
func (gs *gatherScratch) merge(res []shardBatch, nq int, out []Assignment) ([]Assignment, error) {
	for i := range res {
		if res[i].err != nil {
			return nil, res[i].err
		}
	}
	gs.offs = append(gs.offs[:0], 0)
	for i := range res {
		gs.offs = append(gs.offs, gs.offs[i]+res[i].clusters)
	}
	out = out[:0]
	for j := 0; j < nq; j++ {
		best := Assignment{Cluster: -1}
		cands := 0
		for i := range res {
			a := res[i].out[j]
			cands += a.Candidates
			if a.Cluster >= 0 && (best.Cluster < 0 || a.Score > best.Score) {
				best = a
				best.Cluster = gs.offs[i] + a.Cluster
			}
		}
		best.Candidates = cands
		out = append(out, best)
	}
	return out, nil
}

// shardedMetrics is the router-level instrumentation. The per-shard engines
// keep their own families (shard-labeled); these cover what only the router
// sees — whole scatter-gather call latency.
type shardedMetrics struct {
	gatherSingle *obs.Histogram
	gatherBatch  *obs.Histogram
}

// Sharded is an in-process sharded serving engine: N independent Engines
// behind one Serving surface. Safe for concurrent use exactly like Engine;
// Ingest serializes internally (routing order defines id minting), reads
// are lock-free per shard.
type Sharded struct {
	cfg    ShardedConfig // template config; Engine.Retention holds the TOTAL policy
	shards []*Engine
	n      int
	pool   *par.Pool // fans one call out to the shards: GOMAXPROCS at construction

	// mu orders ingests: the round-robin cursor, the locked-in dimension and
	// the per-shard delivery order together define which global id every
	// arrival gets, so routing is a critical section. Reads never take it.
	mu    sync.Mutex
	rr    int           // round-robin placement cursor (mod n)
	dim   int           // locked by the first accepted ingest (0 = none yet)
	split [][][]float64 // per-shard sub-batch scratch, reused under mu

	assigns atomic.Int64 // logical queries (each fans out to all shards)

	gpool  sync.Pool
	met    *shardedMetrics
	obsReg *obs.Registry

	closeOnce sync.Once
	closeErr  error
}

// NewSharded builds an N-shard engine. The optional initial batch is routed
// round-robin exactly like ingested points (point k → shard k mod N, global
// id k) and committed synchronously, so Assign works the moment it returns.
func NewSharded(cfg ShardedConfig, initial [][]float64) (*Sharded, error) {
	n := cfg.Shards
	if n <= 0 {
		return nil, fmt.Errorf("engine: shard count %d, want >= 1", n)
	}
	// Router-edge dimension and finiteness check, mirroring stream.New:
	// sub-batches must be rejected atomically here, naming the caller's
	// index — shard j discovering bad input after shard i already
	// committed its subset would be a partial construction.
	for i, p := range initial {
		if err := queryErr(p, len(initial[0])); err != nil {
			return nil, fmt.Errorf("engine: initial point %d: %w", i, err)
		}
	}
	reg := cfg.Engine.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	subs := make([][][]float64, n)
	for k, p := range initial {
		subs[k%n] = append(subs[k%n], p)
	}
	s := &Sharded{
		cfg:    cfg,
		n:      n,
		pool:   par.New(-1),
		split:  make([][][]float64, n),
		obsReg: reg,
	}
	// New's three steps, with only the commits fanned out: registration and
	// writer start stay in shard order, and a failed commit returns before
	// any writer runs.
	ps := make([]prepared, n)
	for i := range ps {
		ecfg := shardConfig(cfg.Engine, reg, i, n)
		ecfg.Retention = shareOf(cfg.Engine.Retention, n)
		p, err := prepare(ecfg, subs[i])
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		ps[i] = p
	}
	errs := make([]error, n)
	s.pool.Each(n, func(_, i int) {
		errs[i] = ps[i].commit()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
	}
	for _, p := range ps {
		s.shards = append(s.shards, start(p.cfg, p.reg, p.c))
	}
	s.rr = len(initial) % n
	if len(initial) > 0 {
		s.dim = len(initial[0])
	}
	s.finish(reg)
	return s, nil
}

// shardConfig derives shard i's engine config from the router template:
// the shared registry, plus a shard metric label and log attribute when
// there is more than one shard — a 1-shard router exports exactly a plain
// engine's series. Retention is left to the caller (see shareOf).
func shardConfig(tmpl Config, reg *obs.Registry, i, n int) Config {
	c := tmpl
	c.Obs = reg
	c.ShardLabel = ""
	if n > 1 {
		c.ShardLabel = strconv.Itoa(i)
		if c.Logger != nil {
			c.Logger = c.Logger.With("shard", i)
		}
	}
	return c
}

// shareOf is one shard's part of a TOTAL retention policy: the point cap
// split evenly (ceiling) across n shards, the age limit unchanged.
func shareOf(total stream.Retention, n int) stream.Retention {
	if total.MaxPoints > 0 {
		total.MaxPoints = (total.MaxPoints + n - 1) / n
	}
	return total
}

// finish registers the router-level metrics and builds the gather pool
// (shared by the construction and restore paths).
func (s *Sharded) finish(reg *obs.Registry) {
	n := s.n
	s.gpool.New = func() any {
		gs := &gatherScratch{
			slots:  make([]shardBatch, n),
			bouts:  make([][]Assignment, n),
			offs:   make([]int, n+1),
			shards: s.shards,
		}
		gs.assignOne, gs.assignMany = gs.assignShard, gs.assignShardBatch
		return gs
	}
	s.met = &shardedMetrics{
		gatherSingle: obs.NewHistogram("alid_gather_duration_seconds", "Whole scatter-gather call latency at the sharded router, by serving mode.", `mode="single"`, 1e-9),
		gatherBatch:  obs.NewHistogram("alid_gather_duration_seconds", "Whole scatter-gather call latency at the sharded router, by serving mode.", `mode="batch"`, 1e-9),
	}
	reg.MustRegister(s.met.gatherSingle, s.met.gatherBatch)
	reg.MustRegister(obs.NewGaugeFunc("alid_shards", "Configured shard count of the sharded router.", "",
		func() int64 { return int64(n) }))
	for i, sh := range s.shards {
		reg.MustRegister(obs.NewGaugeFunc("alid_ingest_queue_depth",
			"Ingested-but-uncommitted points per shard (that shard's queue plus writer buffer).",
			`shard="`+strconv.Itoa(i)+`"`, sh.queued.Load))
	}
}

// Dim returns the committed point dimensionality (the max over shards: all
// non-empty shards agree, empty ones report 0).
func (s *Sharded) Dim() int {
	d := 0
	for _, sh := range s.shards {
		if sd := sh.Dim(); sd > d {
			d = sd
		}
	}
	return d
}

// Config returns the per-shard template configuration (with the TOTAL
// retention policy, not the per-shard split).
func (s *Sharded) Config() Config { return s.cfg.Engine }

// Obs returns the registry shared by the router and every shard.
func (s *Sharded) Obs() *obs.Registry { return s.obsReg }

// Ingest validates the whole batch at the router edge (atomically: one bad
// point rejects everything before any shard sees anything), partitions it
// round-robin from the placement cursor, and delivers each shard's
// sub-batch as one Engine.Ingest call — all-or-nothing per shard. On a
// context cancellation mid-delivery (a full shard queue) a prefix of the
// shards keeps its accepted sub-batches: ids stay consistent (per-shard
// minting is independent) but the caller should treat the batch as not
// ingested and retry idempotent work.
func (s *Sharded) Ingest(ctx context.Context, pts [][]float64) error {
	if len(pts) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dim := s.dim
	if dim == 0 {
		dim = len(pts[0])
	}
	// Engine.Ingest's check — but against the router's locked-in
	// dimension, which makes writer-side rejects (that would desynchronize
	// per-shard id accounting) structurally impossible: every delivered
	// point is already fully valid.
	if err := ingestErr(pts, dim); err != nil {
		return err
	}
	for i := range s.split {
		s.split[i] = s.split[i][:0]
	}
	for i, p := range pts {
		sh := (s.rr + i) % s.n
		s.split[sh] = append(s.split[sh], p)
	}
	for i := 0; i < s.n; i++ {
		if len(s.split[i]) == 0 {
			continue
		}
		// Engine.Ingest copies the rows, so handing it sub-slices of the
		// caller's batch is safe.
		if err := s.shards[i].Ingest(ctx, s.split[i]); err != nil {
			return err
		}
		s.rr = (s.rr + len(s.split[i])) % s.n
		if s.dim == 0 {
			s.dim = dim
		}
	}
	// rr advanced per accepted sub-batch above; on full success that nets
	// out to the arrival count, keeping the k-th accepted point on shard
	// k mod n. Fix up the cursor to the exact arrival semantics:
	s.rr = s.rr % s.n
	return nil
}

// Flush waits until everything enqueued before the call is committed and
// published on every shard; shard errors resolve by lowest shard index.
func (s *Sharded) Flush(ctx context.Context) error {
	errs := make([]error, s.n)
	s.pool.Each(s.n, func(_, i int) {
		errs[i] = s.shards[i].Flush(ctx)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Evict tombstones committed points by GLOBAL id: each id is routed to its
// owning shard (id mod N, local id div N) and evicted there through that
// shard's writer queue. Returns the total number of points newly evicted;
// shard errors resolve by lowest shard index.
func (s *Sharded) Evict(ctx context.Context, ids []int) (int, error) {
	per := make([][]int, s.n)
	for _, g := range ids {
		if g < 0 {
			return 0, fmt.Errorf("engine: evict id %d out of range", g)
		}
		per[g%s.n] = append(per[g%s.n], g/s.n)
	}
	type evictSlot struct {
		n   int
		err error
	}
	res := make([]evictSlot, s.n)
	s.pool.Each(s.n, func(_, i int) {
		if len(per[i]) > 0 {
			res[i].n, res[i].err = s.shards[i].Evict(ctx, per[i])
		}
	})
	total := 0
	for _, r := range res {
		total += r.n
	}
	for _, r := range res {
		if r.err != nil {
			return total, r.err
		}
	}
	return total, nil
}

// Assign scatters the query to every shard, pins one published generation
// per shard, and merges by best affinity score (ties → lowest shard index).
// The winning cluster id is GLOBAL: the shard's local id offset by the
// cluster counts of all lower shards, matching ClustersWithMeta's order.
// Candidates sums the per-shard diagnostics. Bit-identical at any
// GOMAXPROCS; a 1-shard router answers bit-identically to a plain Engine.
func (s *Sharded) Assign(q []float64) (Assignment, error) {
	gs := s.gpool.Get().(*gatherScratch)
	defer s.gpool.Put(gs)
	start := obs.Now()
	gs.q = q
	s.pool.Each(s.n, gs.assignOne)
	gs.q = nil
	var one [1]Assignment
	merged, err := gs.merge(gs.slots, 1, one[:0])
	if err != nil {
		return Assignment{}, err
	}
	s.assigns.Add(1)
	s.met.gatherSingle.ObserveSince(start)
	return merged[0], nil
}

// AssignBatch classifies a batch; see AssignBatchInto.
func (s *Sharded) AssignBatch(qs [][]float64) ([]Assignment, error) {
	return s.AssignBatchInto(qs, make([]Assignment, 0, len(qs)))
}

// AssignBatchInto scatters the WHOLE batch to every shard (one pinned
// generation per shard for all queries) and merges per query exactly like
// Assign: best score, ties to the lowest shard, global cluster ids,
// summed Candidates. Results are appended to out (resliced to out[:0]).
func (s *Sharded) AssignBatchInto(qs [][]float64, out []Assignment) ([]Assignment, error) {
	out = out[:0]
	if len(qs) == 0 {
		return out, nil
	}
	gs := s.gpool.Get().(*gatherScratch)
	defer s.gpool.Put(gs)
	start := obs.Now()
	gs.qs = qs
	s.pool.Each(s.n, gs.assignMany)
	gs.qs = nil
	out, err := gs.merge(gs.slots, len(qs), out)
	if err != nil {
		return nil, err
	}
	s.assigns.Add(int64(len(qs)))
	s.met.gatherBatch.ObserveSince(start)
	return out, nil
}

// globalCluster translates one shard's cluster to the global id space:
// member and seed point ids become local·N + shard. With one shard the
// published cluster is returned as-is (ids already global); otherwise a
// fresh cluster value is built — Weights stay shared with the immutable
// published cluster and must not be mutated, same contract as Engine.
func (s *Sharded) globalCluster(cl *core.Cluster, shard int) *core.Cluster {
	if s.n == 1 {
		return cl
	}
	cp := *cl
	cp.Members = make([]int, len(cl.Members))
	for i, m := range cl.Members {
		cp.Members[i] = m*s.n + shard
	}
	cp.Seed = cl.Seed*s.n + shard
	return &cp
}

// ClustersWithMeta returns the maintained clusters of every shard,
// concatenated in shard order (the order Assign's global cluster ids index
// into) with member/seed ids translated to global ids, plus the summed
// committed point count and commit counter. Each shard's triple is
// internally coherent (one pinned generation per shard); the sums across
// shards are monitoring-grade, like Stats.
func (s *Sharded) ClustersWithMeta() (clusters []*core.Cluster, n, commits int) {
	for si, sh := range s.shards {
		cls, sn, sc := sh.ClustersWithMeta()
		n += sn
		commits += sc
		for _, cl := range cls {
			clusters = append(clusters, s.globalCluster(cl, si))
		}
	}
	return clusters, n, commits
}

// Stats sums the per-shard summaries. Assigns counts LOGICAL queries (the
// router's own counter — each fans out to all N shards, so summing shard
// counters would multiply by N); the latency quantiles are the router's
// whole-gather distribution; Dim is the largest shard's; N/LiveN/Clusters/
// Commits/Generation and the exact counters are per-shard sums.
func (s *Sharded) Stats() Stats {
	var t Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		t.N += st.N
		t.LiveN += st.LiveN
		t.Clusters += st.Clusters
		t.Commits += st.Commits
		t.Evicted += st.Evicted
		t.QueuedPoints += st.QueuedPoints
		t.Ingested += st.Ingested
		t.AffinityComputed += st.AffinityComputed
		t.WriterErrors += st.WriterErrors
		t.EverSeenIDs += st.EverSeenIDs
		if st.Dim > t.Dim {
			t.Dim = st.Dim
		}
		// Shards compact independently; the sum moves whenever any of them
		// renumbers, which is the signal clients re-read ids on.
		t.Generation += st.Generation
	}
	t.Assigns = s.assigns.Load()
	t.AssignP50 = s.met.gatherSingle.Quantile(0.50)
	t.AssignP95 = s.met.gatherSingle.Quantile(0.95)
	t.AssignP99 = s.met.gatherSingle.Quantile(0.99)
	return t
}

// Close stops every shard's writer (draining queues and committing buffered
// points); the first shard error, in shard order, is returned.
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			if err := sh.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
