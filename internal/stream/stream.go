// Package stream implements an online extension of ALID — the future-work
// direction named in the paper's conclusion ("extend ALID towards the online
// version to efficiently process streaming data sources").
//
// Points arrive one at a time and are committed in batches. On each commit:
//
//  1. the new points are hashed into the existing LSH index (no rebuild);
//  2. every maintained cluster that shares an LSH bucket with a new point is
//     checked for infective arrivals — by Theorem 1 a cluster stays a global
//     dense subgraph unless some vertex has π(s_j, x) > π(x). The check is
//     restricted to co-bucketed clusters: like offline CIVS (Section 4.3),
//     which also only ever examines LSH-retrieved candidates, it declares
//     clusters dense "up to the LSH approximation" — an infective arrival
//     that collides with no member in any of the l tables is missed, with
//     probability that decays with l exactly as the paper's retrieval
//     recall does. In exchange the check costs O(batch) candidate lookups
//     instead of the exhaustive O(batch·n) member scan;
//  3. dirty clusters are re-converged by re-running Algorithm 2 from their
//     densest member;
//  4. the unassigned arrivals are peeled as seeds for new clusters with
//     core.Detector.Peel, the loop DetectAll runs: every detection consumes
//     its support and seed, accepted or not, so a point a detection took
//     without keeping it (a rejected support, a seed left outside its
//     support) is skipped for the rest of the commit, then given back, free
//     for later commits. Unassigned old points may be absorbed by a new
//     cluster but never seed one.
//
// The amortized per-batch cost is the cost of re-running ALID on the touched
// neighborhoods only, preserving the locality that makes offline ALID scale.
// A first commit, where every point is an arrival and no cluster exists
// yet, is DetectAll's peel over the initial batch: it peels the LSH
// components concurrently on a GOMAXPROCS-wide par pool, whatever
// Config.Core.Pool says, and keeps DetectAll's clusters in seed order.
// Later commits peel serially, since the components cost O(n·tables). When
// Config.Core.Pool is set, the detections inside each commit (dirty
// re-convergence and new-seed peeling) fan out their inner loops over it.
// The committed clusters are bit-identical at any pool width.
//
// Published views follow the share-and-seal protocol: View seals the current
// matrix and index state into structurally shared immutable snapshots
// (matrix.Matrix.Snapshot, lsh.Index.Publish) instead of marking the live
// state copy-on-write. Commit then appends freely — sealed chunks and bucket
// segments referenced by outstanding views are never rewritten — so the
// commit path no longer pays the O(n·d) matrix clone + O(n·l) index clone
// that copy-on-write charged after every publish.
//
// Eviction closes the loop for forever-running streams: Evict tombstones
// committed points (ids stay stable; liveness lives in copy-on-write
// bitmaps, honoring the seal invariant), repairs affected clusters, and
// Config.Retention evicts expired points automatically after every commit.
// Physical reclaim is whole-chunk release plus LSH compaction, so a
// retention-bounded stream's memory is proportional to the window, not to
// the points ever seen.
package stream

import (
	"context"
	"fmt"
	"slices"
	"time"

	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/matrix"
	"alid/internal/obs"
	"alid/internal/par"
)

// Config controls the online clusterer.
type Config struct {
	// Core is the ALID configuration applied to every (re-)detection.
	Core core.Config
	// BatchSize is the number of buffered points per commit.
	BatchSize int
	// Retention bounds the live committed point set: enabled retention
	// evicts expired points automatically after every commit, which is what
	// keeps a forever-running stream's memory proportional to the window
	// instead of the points ever seen.
	Retention Retention
	// Obs registers the clusterer's commit/eviction metrics (see metrics.go)
	// with the given registry; nil keeps them unexported. Metrics are pure
	// diagnostics: no commit or eviction decision ever reads one, so the
	// clusterer's determinism contract is unaffected either way.
	Obs *obs.Registry
	// ObsLabels is an optional pre-rendered constant label fragment (e.g.
	// `shard="2"`) appended to every metric this clusterer registers. It is
	// what lets several clusterers — one per serving shard — share one
	// registry without colliding on family name + labels.
	ObsLabels string
}

// Retention is the sliding-window eviction policy.
type Retention struct {
	// MaxPoints caps the number of live committed points; after each commit
	// the oldest live points beyond the cap are evicted. 0 = no cap.
	MaxPoints int
	// MaxAge evicts every point whose commit is older than this. 0 = no
	// age bound. Ages are measured per commit batch; a restored clusterer
	// treats all restored points as born at restore time (commit times are
	// not persisted).
	MaxAge time.Duration
	// Now overrides the clock for MaxAge (deterministic tests); nil means
	// time.Now. Only consulted when MaxAge > 0.
	Now func() time.Time
}

// Enabled reports whether any retention bound is set.
func (r Retention) Enabled() bool { return r.MaxPoints > 0 || r.MaxAge > 0 }

func (r Retention) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// commitStamp records when a commit's points arrived (only kept while
// Retention.MaxAge is set; expired entries are trimmed as their points go).
type commitStamp struct {
	firstID int
	at      time.Time
}

// Clusterer maintains dominant clusters over an append-only stream. Committed
// points live in a segmented matrix.Matrix that grows by appending to its
// tail chunk; only the uncommitted buffer is row-sliced.
type Clusterer struct {
	cfg    Config
	mat    *matrix.Matrix
	buffer [][]float64
	index  index.Index

	clusters []*core.Cluster
	assigned *Labels // point -> cluster ordinal, -1 noise (chunked, COW-shared)
	avail    []bool  // avail[i] = assigned[i] == -1, maintained incrementally

	// det is the long-lived detector: the oracle and index capture c.mat and
	// c.index by reference (both grow in place), and each detection grows
	// the detector's id-indexed scratch to match — reusing it avoids an
	// O(n) scratch allocation on every commit.
	det *core.Detector

	commits int
	// kernelEvals accumulates kernel evaluations done by commits (dirtiness
	// checks plus detection work). Diagnostic; restored clusterers restart
	// at zero.
	kernelEvals int64
	// evicted counts points tombstoned so far (manual Evict + retention).
	evicted int
	// evictCursor is the lowest id that may still be live: everything below
	// it is tombstoned. Retention scans for the oldest live points start
	// here, keeping enforcement amortized O(evicted), not O(n) per commit.
	evictCursor int
	// stamps are per-commit arrival times, kept only under a MaxAge policy.
	stamps []commitStamp

	// generation counts id renumberings: CompactGeneration rebuilds the
	// committed state over only the live points, densely renumbered, and
	// bumps this. Ids are stable WITHIN a generation.
	// baseIDs counts ids retired by past compactions: baseIDs + mat.N is the
	// number of ids ever minted, however many generations have recycled the
	// dense range.
	generation int
	baseIDs    int

	// scratch for the dirtiness check's candidate retrieval (marker-value
	// dedup, same idiom as CIVS); mark grows with n, cmark with the cluster
	// count, both reused across commits.
	mark    []uint32
	cmark   []uint32
	markGen uint32
	cand    []int32
	// col is the dirtiness check's affinity column, reused across commits.
	col []float64
	// consumed holds the ids step 4's peel consumed, reused across commits.
	consumed []int

	// met is the commit/eviction instrumentation — always non-nil, so hot
	// paths observe unconditionally (one atomic add; a no-op under the
	// noobs build tag).
	met *streamMetrics
}

// New creates an online clusterer seeded with an optional initial batch,
// refusing a ragged or non-finite one (see Add).
func New(initial [][]float64, cfg Config) (*Clusterer, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	c := &Clusterer{cfg: cfg, assigned: &Labels{}, met: newStreamMetrics(cfg.Obs, cfg.ObsLabels)}
	for i, p := range initial {
		if len(p) != len(initial[0]) {
			return nil, fmt.Errorf("stream: initial point %d has dimension %d, want %d", i, len(p), len(initial[0]))
		}
		if !matrix.Finite(p) {
			return nil, fmt.Errorf("stream: initial point %d is not finite", i)
		}
	}
	if len(initial) > 0 {
		c.buffer = append(c.buffer, initial...)
	}
	return c, nil
}

// RestoreGeneration reconstructs a clusterer from persisted state: the
// committed matrix, the index built over it, the maintained clusters, the
// per-point labels and the id-lifecycle counters. It validates
// cross-component consistency so a corrupt or mismatched snapshot fails here
// rather than on a later commit. A clusterer restored from a v5 snapshot
// resumes numbering new generations where the saved one stopped, and
// `retired` (ids released by the saved stream's past compactions) keeps the
// published EverSeenIDs monotone across the restart.
func RestoreGeneration(cfg Config, mat *matrix.Matrix, index index.Index, clusters []*core.Cluster, labels []int, commits, generation, retired int) (*Clusterer, error) {
	if generation < 0 {
		return nil, fmt.Errorf("stream: restore generation %d, want >= 0", generation)
	}
	if retired < 0 {
		return nil, fmt.Errorf("stream: restore retired-id count %d, want >= 0", retired)
	}
	if retired > 0 && generation == 0 {
		return nil, fmt.Errorf("stream: restore has %d retired ids at generation 0 (ids are only retired by compactions)", retired)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if mat == nil || mat.N == 0 {
		return nil, fmt.Errorf("stream: restore with empty matrix")
	}
	if index == nil || index.N() != mat.N {
		return nil, fmt.Errorf("stream: restore index covers %d points, matrix has %d", index.N(), mat.N)
	}
	if index.Dim() != mat.D {
		return nil, fmt.Errorf("stream: restore index hashes dimension %d, matrix has %d", index.Dim(), mat.D)
	}
	if len(labels) != mat.N {
		return nil, fmt.Errorf("stream: restore has %d labels for %d points", len(labels), mat.N)
	}
	avail := make([]bool, len(labels))
	for i, l := range labels {
		if l < -1 || l >= len(clusters) {
			return nil, fmt.Errorf("stream: restore label %d of point %d out of range [-1,%d)", l, i, len(clusters))
		}
		if !mat.Live(i) && l != -1 {
			return nil, fmt.Errorf("stream: restore labels evicted point %d into cluster %d", i, l)
		}
		// Evicted points are neither assigned nor available: they must never
		// re-enter a detection.
		avail[i] = l == -1 && mat.Live(i)
	}
	for ci, cl := range clusters {
		// A snapshot is disk input: a memberless or ragged cluster must fail
		// here with an error, not later as a heaviestMember panic on the
		// first commit that re-converges it.
		if len(cl.Members) == 0 {
			return nil, fmt.Errorf("stream: restore cluster %d has no members", ci)
		}
		if len(cl.Weights) != len(cl.Members) {
			return nil, fmt.Errorf("stream: restore cluster %d has %d members but %d weights", ci, len(cl.Members), len(cl.Weights))
		}
		for _, m := range cl.Members {
			if m < 0 || m >= mat.N {
				return nil, fmt.Errorf("stream: restore cluster %d member %d out of range [0,%d)", ci, m, mat.N)
			}
			if !mat.Live(m) {
				return nil, fmt.Errorf("stream: restore cluster %d contains evicted member %d", ci, m)
			}
		}
	}
	c := &Clusterer{
		cfg:        cfg,
		mat:        mat,
		index:      index,
		clusters:   append([]*core.Cluster(nil), clusters...),
		assigned:   labelsFromFlat(labels),
		avail:      avail,
		commits:    commits,
		evicted:    mat.N - mat.LiveCount(),
		generation: generation,
		baseIDs:    retired,
		met:        newStreamMetrics(cfg.Obs, cfg.ObsLabels),
	}
	// The restored index may carry a lifetime compaction count; don't credit
	// the previous process's merges to this one's counter.
	c.met.lastCompactions = index.Compactions()
	// Released matrix chunks (fully evicted ranges) release their label
	// chunks too — the flat label slice re-materialized them as -1 runs.
	if mat.Tombstoned() {
		for ch := 0; ch < c.assigned.numChunks(); ch++ {
			if mat.ChunkReleased(ch) {
				c.assigned.releaseChunk(ch)
			}
		}
	}
	if cfg.Retention.MaxAge > 0 {
		// Commit times are not persisted: restored points age from now.
		c.stamps = []commitStamp{{firstID: 0, at: cfg.Retention.now()}}
	}
	return c, nil
}

// Dim returns the point dimensionality, or 0 if no point has been seen yet.
func (c *Clusterer) Dim() int {
	if c.mat != nil {
		return c.mat.D
	}
	if len(c.buffer) > 0 {
		return len(c.buffer[0])
	}
	return 0
}

// View returns an immutable snapshot of the committed state: the matrix, the
// LSH index, the maintained clusters and per-point labels. The clusters
// slice is a fresh copy; the matrix, index and labels are share-and-seal
// snapshots — sealed chunks and bucket segments are shared with the live
// state by reference, only the mutable tails are copied (the index's tail
// is sealed, and label chunks go copy-on-write). Views are therefore safe
// for unlimited concurrent readers, and both taking one and committing past
// one cost O(batch + chunk pointers), independent of n.
func (c *Clusterer) View() View {
	v := View{
		Clusters:    append([]*core.Cluster(nil), c.clusters...),
		Labels:      c.assigned.snapshot(),
		Commits:     c.commits,
		KernelEvals: c.kernelEvals,
		Generation:  c.generation,
		RetiredIDs:  c.baseIDs,
		EverSeenIDs: c.baseIDs + c.N(),
	}
	if c.mat != nil {
		v.Mat = c.mat.Snapshot()
	}
	if c.index != nil {
		v.Index = c.index.PublishIndex()
		// Credit the merges this publish (and any before it) performed;
		// Compactions is writer-side state, and View runs on the writer.
		if n := c.index.Compactions(); n > c.met.lastCompactions {
			c.met.lshCompactions.Add(n - c.met.lastCompactions)
			c.met.lastCompactions = n
		}
	}
	c.met.publishes.Inc()
	return v
}

// View is an immutable published snapshot of a Clusterer. Cluster values are
// shared pointers but are never mutated after detection; Mat and Index are
// structurally shared snapshots whose sealed state the live Clusterer never
// rewrites (the share-and-seal contract of Clusterer.View).
type View struct {
	Mat      *matrix.Matrix
	Index    index.Index
	Clusters []*core.Cluster
	Labels   *Labels
	Commits  int
	// KernelEvals is the cumulative commit-side kernel-evaluation count at
	// publish time (diagnostic).
	KernelEvals int64
	// Generation is the id-renumbering epoch this view's ids belong to:
	// CompactGeneration bumps it and every id is reassigned densely over the
	// survivors. Ids are stable within a generation.
	Generation int
	// RetiredIDs counts ids released by past compactions; persisted (v5) so
	// ever-seen accounting survives restarts.
	RetiredIDs int
	// EverSeenIDs counts ids ever minted across all generations (the
	// quantity the pre-compaction engine's bookkeeping scaled with):
	// RetiredIDs + Mat.N.
	EverSeenIDs int
}

// N returns the number of committed points, evicted ones included (point
// ids are stable across evictions).
func (c *Clusterer) N() int {
	if c.mat == nil {
		return 0
	}
	return c.mat.N
}

// Live returns the number of committed points that have not been evicted.
func (c *Clusterer) Live() int {
	if c.mat == nil {
		return 0
	}
	return c.mat.LiveCount()
}

// Evicted returns the number of committed points tombstoned so far
// (cumulative across generations — compaction does not reset it).
func (c *Clusterer) Evicted() int { return c.evicted }

// Pending returns the number of buffered, uncommitted points.
func (c *Clusterer) Pending() int { return len(c.buffer) }

// Commits returns how many batch commits have run.
func (c *Clusterer) Commits() int { return c.commits }

// Clusters returns the currently maintained dominant clusters in a fresh
// slice. The cluster values are the maintained ones and must not be
// mutated, but the slice itself is the caller's: appending to it or
// reordering it cannot corrupt clusterer state (returning the live internal
// slice used to allow exactly that).
func (c *Clusterer) Clusters() []*core.Cluster { return append([]*core.Cluster(nil), c.clusters...) }

// Labels returns the current per-point assignment (-1 = noise/unassigned)
// as a fresh flat slice.
func (c *Clusterer) Labels() []int { return c.assigned.Flat() }

// Add buffers a point and commits automatically when the batch is full.
// A point of the wrong width, or one matrix.FromRows would refuse as not
// finite, is rejected here, at the boundary, never surfacing as a late
// commit failure (which would keep it buffered) or an internal panic.
func (c *Clusterer) Add(ctx context.Context, p []float64) error {
	if d := c.Dim(); d != 0 && len(p) != d {
		return fmt.Errorf("stream: point has dimension %d, want %d", len(p), d)
	}
	if len(p) == 0 {
		return fmt.Errorf("stream: empty point")
	}
	if !matrix.Finite(p) {
		return fmt.Errorf("stream: point is not finite")
	}
	c.buffer = append(c.buffer, p)
	if len(c.buffer) >= c.cfg.BatchSize {
		return c.Commit(ctx)
	}
	return nil
}

// Commit integrates all buffered points into the maintained clustering.
// If ctx is cancelled mid-way, the points stay committed, a cluster whose
// re-convergence was cut short keeps its previous form, and clusters below
// the density threshold or minimum size are dropped: labels agree with
// cluster membership, and the next commit carries on from there.
func (c *Clusterer) Commit(ctx context.Context) error {
	if len(c.buffer) == 0 {
		return nil
	}
	commitStart := obs.Now()
	var firstNew int
	if c.mat == nil {
		m, err := matrix.FromRows(c.buffer)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		c.mat = m
	} else {
		first, err := c.mat.AppendRows(c.buffer)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		firstNew = first
	}
	// The buffer is consumed the moment the rows land in the matrix: clearing
	// it (and extending the assignment vector) before any fallible index or
	// detector work keeps Commit retry-safe — a failed commit must never
	// re-append the same points.
	newCount := len(c.buffer)
	c.buffer = c.buffer[:0]
	for i := 0; i < newCount; i++ {
		c.assigned.append(-1)
		c.avail = append(c.avail, true)
	}
	c.commits++

	// (Re)build or extend the candidate index from the committed matrix rows.
	// Append touches only each table's mutable tail, never the sealed
	// segments outstanding views share.
	if c.index == nil {
		idx, err := core.BuildIndex(c.mat, c.cfg.Core)
		if err != nil {
			return err
		}
		c.index = idx
	} else {
		newRows := make([][]float64, newCount)
		for i := range newRows {
			newRows[i] = c.mat.Row(firstNew + i)
		}
		if _, err := c.index.Append(newRows); err != nil {
			return err
		}
	}

	// The detector is created once and rebound to the grown dataset by
	// extending its scratch: oracle and index alias c.mat / c.index, which
	// only ever grow in place.
	if err := c.ensureDetector(); err != nil {
		return err
	}
	det := c.det
	cfg := det.Config()

	// Step 2: find clusters made dirty by infective new points. Only
	// clusters sharing an LSH bucket with a new point are tested: each new
	// point's co-bucketed candidates come from the inverted list (no
	// rehashing), their owning clusters are deduplicated, and the full
	// payoff g_j is evaluated against those clusters only. This is the same
	// locality bound CIVS applies to candidate retrieval (Section 4.3); a
	// cluster that shares no bucket with any arrival is declared clean
	// without touching its members, so the check costs O(batch·candidates),
	// independent of n.
	dirtyStart := obs.Now()
	dirty := make([]bool, len(c.clusters))
	if len(c.clusters) > 0 {
		if len(c.mark) < c.mat.N {
			c.mark = append(c.mark, make([]uint32, c.mat.N-len(c.mark))...)
		}
		if len(c.cmark) < len(c.clusters) {
			c.cmark = append(c.cmark, make([]uint32, len(c.clusters)-len(c.cmark))...)
		}
		query := []int{0}
		for j := firstNew; j < c.mat.N; j++ {
			c.markGen++
			if c.markGen == 0 { // uint32 wrap: reset markers
				clear(c.mark)
				clear(c.cmark)
				c.markGen = 1
			}
			query[0] = j
			c.cand = c.index.CandidatesByIDsInto(query, c.cand[:0], c.mark, c.markGen, nil)
			for _, id := range c.cand {
				ci := c.assigned.At(int(id))
				// A clean cluster is tested against j at most once, however
				// many of its members co-bucket with j (cmark dedup, the
				// same idiom as the assign path's candidate clusters).
				if ci < 0 || dirty[ci] || c.cmark[ci] == c.markGen {
					continue
				}
				c.cmark[ci] = c.markGen
				cl := c.clusters[ci]
				c.col = slices.Grow(c.col[:0], len(cl.Members))[:len(cl.Members)]
				det.Oracle().Column(j, cl.Members, c.col)
				var gj float64
				for t, a := range c.col {
					gj += cl.Weights[t] * a
				}
				if gj-cl.Density > cfg.Tol {
					dirty[ci] = true
				}
			}
		}
	}

	c.met.dirtyCheckDur.ObserveSince(dirtyStart)

	// Steps 3 and 4 may be cut short by ctx; the compact runs either way,
	// so a cancelled commit still leaves a valid maintained state.
	detectStart := obs.Now()
	err := c.detectDirtyAndNew(ctx, dirty, firstNew)
	// Drop clusters that decayed below the threshold after re-convergence.
	c.compact(cfg.DensityThreshold, cfg.MinClusterSize)
	// The long-lived oracle's counter is drained per commit, so the delta is
	// exactly this commit's dirtiness checks and detection work.
	c.kernelEvals += det.Oracle().ResetComputed()
	if err != nil {
		return err
	}
	c.met.detectDur.ObserveSince(detectStart)

	// Retention: stamp this commit's arrivals, then evict whatever the
	// policy has expired — the step that keeps a forever-running stream's
	// live set (and therefore its memory) bounded by the window.
	if c.cfg.Retention.MaxAge > 0 {
		c.stamps = append(c.stamps, commitStamp{firstID: firstNew, at: c.cfg.Retention.now()})
	}
	err = c.enforceRetention(ctx)
	c.met.commitBatch.Observe(int64(newCount))
	c.met.commitDur.ObserveSince(commitStart)
	return err
}

// detectDirtyAndNew runs Commit's steps 3 and 4: it re-converges every
// dirty cluster from its densest member, then peels from the new points
// (ids from firstNew on) on c.avail itself, gives back all the peel
// consumed and claims the clusters it accepted. A first commit peels its
// LSH components on a GOMAXPROCS-wide pool. On an error it returns with
// every cluster claimed; the caller compacts.
func (c *Clusterer) detectDirtyAndNew(ctx context.Context, dirty []bool, firstNew int) error {
	for ci, d := range dirty {
		if !d {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.reconverge(ctx, ci); err != nil {
			return err
		}
		c.met.dirtyReconverged.Inc()
	}
	var pool *par.Pool
	if firstNew == 0 {
		pool = par.New(-1)
	}
	c.consumed = c.consumed[:0]
	found, err := c.det.Peel(ctx, firstNew, c.avail, pool, &c.consumed)
	for _, id := range c.consumed {
		c.avail[id] = true
	}
	for _, cl := range found {
		c.clusters = append(c.clusters, cl)
		c.claim(len(c.clusters) - 1)
		c.met.newClusters.Inc()
	}
	return err
}

// reconverge releases cluster ci's members, re-runs Algorithm 2 from its
// heaviest member over them and the free points, and claims the result.
// If the detection fails, a cancelled context included, the cluster is
// reclaimed as it was, so labels never disagree with cluster membership.
func (c *Clusterer) reconverge(ctx context.Context, ci int) error {
	cl := c.clusters[ci]
	for _, m := range cl.Members {
		c.assigned.set(m, -1)
		c.avail[m] = true
	}
	fresh, err := c.det.DetectFrom(ctx, heaviestMember(cl), c.avail)
	if err == nil {
		c.clusters[ci] = fresh
	}
	c.claim(ci)
	return err
}

// ensureDetector creates the long-lived commit detector on first use. Its
// oracle and index alias c.mat and c.index, which only ever grow in place,
// and each detection fits the detector's scratch to the grown dataset.
func (c *Clusterer) ensureDetector() error {
	if c.det == nil {
		det, err := core.NewDetectorMatrixWithIndex(c.mat, c.cfg.Core, c.index)
		if err != nil {
			return err
		}
		c.det = det
	}
	return nil
}

// evictReconvergeShare is the simplex weight mass a cluster may lose to
// eviction before in-place repair (drop dead members, renormalize, update
// the density from the dead members' rows) is no longer trusted and the
// cluster is re-converged from its heaviest surviving member instead.
const evictReconvergeShare = 0.25

// Evict tombstones the given committed points. Evicted points keep their
// ids but disappear from every answer — Labels reports them as noise,
// clusters shed them, LSH queries skip them — exactly as if the stream had
// been rebuilt from the survivors. Affected clusters are repaired: dead
// members are removed, the remaining weights renormalized on the simplex
// and the density updated in O(|K|·m) kernel evaluations for K dead of m
// members (see repair); a cluster that lost more than evictReconvergeShare
// of its weight mass (or fell below the minimum size) is re-converged from
// its heaviest surviving member, and clusters left below the density
// threshold or minimum size are dropped. Sealed storage is never rewritten:
// tombstones live in bitmaps, and fully dead chunks release their storage.
//
// Ids out of range [0, N()) are rejected before anything is touched;
// already-evicted ids are skipped (idempotent retries). It returns the
// number of points newly evicted. If ctx is cancelled mid-way, tombstones
// and membership repair are already applied (no cluster ever retains a dead
// member, and labels always agree with cluster membership); clusters whose
// re-convergence did not run remain in their repaired — renormalized but
// not re-converged — form, and clusters left below the density threshold
// or minimum size are dropped all the same: a valid maintained state.
func (c *Clusterer) Evict(ctx context.Context, ids []int) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	if c.mat == nil {
		return 0, fmt.Errorf("stream: evict before any commit")
	}
	sorted := append([]int(nil), ids...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	if sorted[0] < 0 || sorted[len(sorted)-1] >= c.mat.N {
		return 0, fmt.Errorf("stream: evict id out of range [0,%d)", c.mat.N)
	}
	live := sorted[:0]
	for _, id := range sorted {
		if c.mat.Live(id) {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return 0, nil
	}
	return len(live), c.evictIDs(ctx, live)
}

// evictIDs applies an eviction. ids must be ascending, unique, in range and
// currently live.
func (c *Clusterer) evictIDs(ctx context.Context, ids []int) error {
	// Phase 1 (may fail, changes no maintained state): collect the affected
	// clusters in ascending ordinal order, so repair and re-convergence are
	// deterministic, and build their repaired forms. Repair reads the
	// evicted members' rows, so it runs before tombstoning releases the
	// storage of fully dead chunks. Published cluster values are immutable;
	// repairs build fresh ones.
	var affected []int
	seen := make(map[int]bool)
	for _, id := range ids {
		if ci := c.assigned.At(id); ci >= 0 && !seen[ci] {
			seen[ci] = true
			affected = append(affected, ci)
		}
	}
	slices.Sort(affected)
	repaired := make([]*core.Cluster, len(affected))
	var reconverge []int
	if len(affected) > 0 {
		if err := c.ensureDetector(); err != nil {
			return err
		}
		for i, ci := range affected {
			var again bool
			repaired[i], again = c.repair(c.clusters[ci], ids)
			if again {
				reconverge = append(reconverge, ci)
			}
		}
	}

	// Phase 2 (never fails): tombstone everywhere, unlabel the dead and
	// install the repairs — whatever happens later, no cluster ever holds an
	// evicted member.
	for _, id := range ids {
		c.assigned.set(id, -1)
		c.avail[id] = false
	}
	for i, ci := range affected {
		c.clusters[ci] = repaired[i]
	}
	evicted, released := c.mat.Evict(ids)
	c.evicted += evicted
	c.met.evictedPoints.Add(int64(evicted))
	if c.index != nil {
		c.index.Evict(ids)
	}
	c.met.chunksReleased.Add(int64(len(released)))
	for _, ch := range released {
		c.assigned.releaseChunk(ch)
	}
	for c.evictCursor < c.mat.N && !c.mat.Live(c.evictCursor) {
		c.evictCursor++
	}
	if len(affected) == 0 {
		return nil
	}

	// Phase 3 (cancellable): re-converge clusters that lost real support,
	// reusing the dirty-cluster machinery. The compact runs even when a
	// cancellation cuts the phase short, so no cluster below the density
	// threshold or the minimum size survives the evict.
	var err error
	for _, ci := range reconverge {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = c.reconverge(ctx, ci); err != nil {
			break
		}
		c.met.evictReconverged.Inc()
	}
	cfg := c.det.Config()
	c.compact(cfg.DensityThreshold, cfg.MinClusterSize)
	c.kernelEvals += c.det.Oracle().ResetComputed()
	return err
}

// repair returns cl without its members in dead (ascending ids), the
// surviving weights renormalized on the simplex, and whether the cluster
// lost enough support to be re-converged. A cluster with no surviving
// weight becomes an empty husk, which the final compact drops.
//
// The density is updated, not recomputed. With survivors S, evicted
// members K and stored weights x,
//
//	π(x) = Σ_{i,j∈S} x_i·x_j·a_ij + 2·Σ_{k∈K} x_k·g_k,
//	g_k  = Σ_{j∈S} x_j·a_kj + Σ_{l∈K before k} x_l·a_kl,
//
// so the survivors' density, renormalized by kept = Σ_{j∈S} x_j, is
// (π − 2·Σ_k x_k·g_k)/kept²: |K|·|S| + |K|(|K|−1)/2 kernel evaluations,
// where the direct sum takes |S|(|S|−1)/2. It reads the rows of K, so it
// must run before they are tombstoned.
func (c *Clusterer) repair(cl *core.Cluster, dead []int) (*core.Cluster, bool) {
	members := make([]int, 0, len(cl.Members))
	weights := make([]float64, 0, len(cl.Members))
	var gone []int // positions of the evicted members in cl.Members
	var kept float64
	for t, m := range cl.Members {
		if _, found := slices.BinarySearch(dead, m); found {
			gone = append(gone, t)
			continue
		}
		members = append(members, m)
		weights = append(weights, cl.Weights[t])
		kept += cl.Weights[t]
	}
	if len(members) == 0 || kept <= 0 {
		return &core.Cluster{Seed: cl.Seed}, false
	}
	// rows and x hold the survivors, then each evicted member once its own
	// g_k has been summed.
	rows := append(make([]int, 0, len(cl.Members)), members...)
	x := append(make([]float64, 0, len(cl.Members)), weights...)
	col := make([]float64, len(cl.Members))
	var lost float64
	for _, t := range gone {
		k := cl.Members[t]
		c.det.Oracle().Column(k, rows, col[:len(rows)])
		var g float64
		for r, a := range col[:len(rows)] {
			g += x[r] * a
		}
		lost += cl.Weights[t] * g
		rows = append(rows, k)
		x = append(x, cl.Weights[t])
	}
	density := 0.0 // one survivor: π = 0, as the direct sum gives
	if len(members) > 1 {
		density = max(0, (cl.Density-2*lost)/(kept*kept))
	}
	for t := range weights {
		weights[t] /= kept
	}
	return &core.Cluster{
		Members:         members,
		Weights:         weights,
		Density:         density,
		Seed:            cl.Seed,
		OuterIterations: cl.OuterIterations,
		LIDIterations:   cl.LIDIterations,
		PeakEntries:     cl.PeakEntries,
	}, 1-kept > evictReconvergeShare || len(members) < c.det.Config().MinClusterSize
}

// CompactGeneration renumbers the live points into a fresh dense generation
// and releases every piece of state that scaled with points EVER seen rather
// than points live: matrix chunk headers and liveness bitmaps, index key
// chunks and tombstone bitmaps, label chunks, the dirtiness-check scratch
// and the eviction cursor. The rebuild appends the survivor rows to an
// empty matrix, as a first commit's matrix.FromRows does, and runs
// core.BuildIndex under the same configuration, so the compacted state is
// bit-identical to a fresh clusterer restored from only the survivors. It
// skips FromRows's finiteness check: a restore adopts rows as saved, and a
// row an older release accepted must not make every compaction fail. Every
// maintained cluster,
// weight, density and label survives with its ids remapped through the
// monotone old→new map.
// A dead cluster seed is remapped to the cluster's heaviest surviving
// member, the same point re-convergence would seed from.
//
// It returns the number of ids released (old N − live N); a clusterer with
// no tombstones returns 0 without touching anything. All fallible work runs
// before any mutation, so a failed compaction leaves the clusterer intact.
// When every point is dead the clusterer resets to the empty pre-first-
// commit state (the next commit starts generation's id 0 afresh).
func (c *Clusterer) CompactGeneration() (int, error) {
	if c.mat == nil || !c.mat.Tombstoned() {
		return 0, nil
	}
	start := obs.Now()
	oldN := c.mat.N
	oldToNew := make([]int, oldN)
	liveRows := make([][]float64, 0, c.mat.LiveCount())
	newStamps := make([]commitStamp, len(c.stamps))
	si := 0
	for i := 0; i < oldN; i++ {
		for si < len(c.stamps) && c.stamps[si].firstID == i {
			newStamps[si] = commitStamp{firstID: len(liveRows), at: c.stamps[si].at}
			si++
		}
		if !c.mat.Live(i) {
			oldToNew[i] = -1
			continue
		}
		oldToNew[i] = len(liveRows)
		liveRows = append(liveRows, c.mat.Row(i))
	}
	for ; si < len(c.stamps); si++ { // defensive: firstID past the scan
		newStamps[si] = commitStamp{firstID: len(liveRows), at: c.stamps[si].at}
	}
	newN := len(liveRows)
	released := oldN - newN

	if newN == 0 {
		// Everything was dead: reset to the empty pre-first-commit state.
		c.mat, c.index, c.clusters, c.assigned, c.avail = nil, nil, nil, &Labels{}, nil
		c.det, c.mark, c.cmark, c.markGen, c.cand = nil, nil, nil, 0, nil
		c.stamps, c.evictCursor = nil, 0
		c.generation++
		c.baseIDs += oldN
		c.met.generationCompactions.Inc()
		c.met.compactionReleased.Add(int64(released))
		c.met.compactionDur.ObserveSince(start)
		return released, nil
	}

	newMat := &matrix.Matrix{D: c.mat.D}
	if _, err := newMat.AppendRows(liveRows); err != nil {
		return 0, fmt.Errorf("stream: compact: %w", err)
	}
	newIdx, err := core.BuildIndex(newMat, c.cfg.Core)
	if err != nil {
		return 0, fmt.Errorf("stream: compact: %w", err)
	}
	newClusters := make([]*core.Cluster, len(c.clusters))
	for ci, cl := range c.clusters {
		nc := &core.Cluster{
			Members:         make([]int, len(cl.Members)),
			Weights:         append([]float64(nil), cl.Weights...),
			Density:         cl.Density,
			OuterIterations: cl.OuterIterations,
			LIDIterations:   cl.LIDIterations,
			PeakEntries:     cl.PeakEntries,
		}
		for t, m := range cl.Members {
			if m < 0 || m >= oldN || oldToNew[m] < 0 {
				return 0, fmt.Errorf("stream: compact: cluster %d references dead member %d", ci, m)
			}
			nc.Members[t] = oldToNew[m]
		}
		if cl.Seed >= 0 && cl.Seed < oldN && oldToNew[cl.Seed] >= 0 {
			nc.Seed = oldToNew[cl.Seed]
		} else {
			nc.Seed = oldToNew[heaviestMember(cl)]
		}
		newClusters[ci] = nc
	}
	newLabels := make([]int, newN)
	newAvail := make([]bool, newN)
	for i := 0; i < oldN; i++ {
		if ni := oldToNew[i]; ni >= 0 {
			newLabels[ni] = c.assigned.At(i)
			newAvail[ni] = newLabels[ni] == -1
		}
	}

	// Point of no return: swap in the compacted state and drop every
	// ever-seen-scaled structure. The long-lived detector aliases the old
	// matrix and index by reference, so it must be rebuilt lazily against
	// the new ones; the marker scratch is id-indexed and dies with the ids.
	c.mat = newMat
	c.index = newIdx
	c.clusters = newClusters
	c.assigned = labelsFromFlat(newLabels)
	c.avail = newAvail
	c.stamps = newStamps
	c.det, c.mark, c.cmark, c.markGen, c.cand = nil, nil, nil, 0, nil
	c.evictCursor = 0
	c.generation++
	c.baseIDs += released
	// Don't credit the rebuild's segment merges as stream-lifetime LSH
	// compactions: the counter tracks the live index's publish-time merges.
	c.met.lastCompactions = newIdx.Compactions()
	c.met.generationCompactions.Inc()
	c.met.compactionReleased.Add(int64(released))
	c.met.compactionDur.ObserveSince(start)
	return released, nil
}

// enforceRetention evicts whatever the retention policy has expired: first
// every point from commits older than MaxAge, then the oldest live points
// beyond MaxPoints. Runs after every commit; both scans start at the evict
// cursor, so enforcement is amortized O(points evicted), independent of N.
func (c *Clusterer) enforceRetention(ctx context.Context) error {
	r := c.cfg.Retention
	if !r.Enabled() || c.mat == nil {
		return nil
	}
	var ids []int
	cut := c.evictCursor
	if r.MaxAge > 0 {
		deadline := r.now().Add(-r.MaxAge)
		j := 0
		for j < len(c.stamps) && !c.stamps[j].at.After(deadline) {
			j++
		}
		if j > 0 {
			cut = c.mat.N
			if j < len(c.stamps) {
				cut = c.stamps[j].firstID
			}
			c.stamps = append([]commitStamp(nil), c.stamps[j:]...)
			for i := c.evictCursor; i < cut; i++ {
				if c.mat.Live(i) {
					ids = append(ids, i)
				}
			}
		}
	}
	if r.MaxPoints > 0 {
		excess := c.mat.LiveCount() - len(ids) - r.MaxPoints
		for i := max(cut, c.evictCursor); excess > 0 && i < c.mat.N; i++ {
			if c.mat.Live(i) {
				ids = append(ids, i)
				excess--
			}
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return c.evictIDs(ctx, ids)
}

// claim labels every member of cluster ci, resolving overlaps to the densest
// cluster — the same rule core.Labels applies to offline detections. The
// availability masks make overlap impossible today (a detection only sees
// unassigned points and the re-converging cluster's own members), so the
// density comparison is a defensive invariant, not a hot path.
func (c *Clusterer) claim(ci int) {
	cl := c.clusters[ci]
	for _, m := range cl.Members {
		if prev := c.assigned.At(m); prev != -1 && prev != ci && c.clusters[prev].Density > cl.Density {
			continue
		}
		c.assigned.set(m, ci)
		c.avail[m] = false
	}
}

// compact drops clusters below the density threshold or minimum size,
// remapping labels. When nothing is dropped it returns without the O(n)
// relabel pass.
func (c *Clusterer) compact(minDensity float64, minSize int) {
	dropped := false
	for _, cl := range c.clusters {
		if cl.Density < minDensity || cl.Size() < minSize {
			dropped = true
			break
		}
	}
	if !dropped {
		return
	}
	var kept []*core.Cluster
	remap := make(map[int]int)
	for ci, cl := range c.clusters {
		if cl.Density >= minDensity && cl.Size() >= minSize {
			remap[ci] = len(kept)
			kept = append(kept, cl)
		}
	}
	// Relabel chunk-wise, skipping released chunks (fully evicted ranges):
	// under retention the relabel pass stays O(live + chunk count) however
	// many points were ever committed.
	for ch := 0; ch < c.assigned.numChunks(); ch++ {
		if c.assigned.chunkReleased(ch) {
			continue
		}
		hi := min((ch+1)*labelChunk, c.assigned.Len())
		for i := ch * labelChunk; i < hi; i++ {
			a := c.assigned.At(i)
			if a == -1 {
				continue
			}
			if ni, ok := remap[a]; ok {
				c.assigned.set(i, ni)
			} else {
				c.assigned.set(i, -1)
				c.avail[i] = true
			}
		}
	}
	c.clusters = kept
}

func heaviestMember(cl *core.Cluster) int {
	best, bestW := -1, -1.0
	for i, m := range cl.Members {
		if cl.Weights[i] > bestW {
			best, bestW = m, cl.Weights[i]
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("stream: cluster with no members: %+v", cl))
	}
	return best
}
