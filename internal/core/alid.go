package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"alid/internal/affinity"
	"alid/internal/index"
	"alid/internal/lid"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/minhash"
	"alid/internal/par"
	"alid/internal/vec"
)

// Config collects every knob of Algorithm 2. Zero values are replaced by the
// paper's defaults where one exists.
type Config struct {
	// Kernel is the affinity kernel of Eq. 1.
	Kernel affinity.Kernel
	// Backend selects the candidate-index implementation behind the CIVS
	// stage: index.BackendLSH (dense p-stable hashing, the default when
	// empty) or index.BackendMinHash (banded MinHash over set signatures).
	Backend string
	// LSH configures the CIVS index for the dense backend.
	LSH lsh.Config
	// MinHash configures the set backend when Backend is "minhash".
	MinHash minhash.Config
	// Delta is δ, the maximum number of candidate vertices CIVS may return
	// per outer iteration. The paper fixes δ = 800.
	Delta int
	// MaxOuter is C, the maximum number of ALID iterations (paper: 10).
	MaxOuter int
	// MaxLID is T, the LID iteration budget per inner solve.
	MaxLID int
	// Tol is the payoff tolerance that declares a subgraph immune.
	Tol float64
	// FirstRadius is the ROI radius for the first iteration, where
	// A_{βα}x_α = 0 makes Eq. 15 unusable. The paper uses 0.4 on normalized
	// features; non-positive means unbounded (δ-nearest only).
	FirstRadius float64
	// DensityThreshold selects which peeled subgraphs count as dominant
	// clusters (paper: π(x) ≥ 0.75).
	DensityThreshold float64
	// MinClusterSize drops smaller supports from the reported clusters (they
	// are still peeled). Defaults to 2: a singleton has π = 0 and can never
	// pass a positive density threshold anyway.
	MinClusterSize int

	// Pool is the deterministic parallel layer: when set, DetectAll peels
	// independent LSH components on its workers, and the hot loops inside
	// each DetectFrom — CIVS candidate scoring, A_{βα} submatrix fills, LID
	// payoff/immunity scans — fan out over them too. Results are
	// bit-identical to the serial path at any worker count and any
	// GOMAXPROCS (see package par); nil keeps everything serial. The
	// Detector itself remains single-caller: the fan-out lives entirely
	// inside each call. One pool may be shared by many detectors (PALID
	// executors, the streaming commit path).
	Pool *par.Pool

	// SingleQueryCIVS is an ablation switch: query LSH only from the
	// heaviest support point instead of all of them, reproducing the
	// single-LSR failure mode of Fig. 4(a).
	SingleQueryCIVS bool
	// FixedROIGrowth is an ablation switch: use R = R_out from the first
	// iteration instead of the θ(c) logistic schedule of Eq. 16.
	FixedROIGrowth bool
}

// DefaultConfig returns the paper's experiment configuration.
func DefaultConfig() Config {
	return Config{
		Kernel:           affinity.DefaultKernel(),
		LSH:              lsh.DefaultConfig(),
		Delta:            800,
		MaxOuter:         10,
		MaxLID:           2000,
		Tol:              lid.DefaultTolerance,
		FirstRadius:      0, // unbounded; paper's 0.4 assumes normalized features
		DensityThreshold: 0.75,
		MinClusterSize:   2,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Kernel == (affinity.Kernel{}) {
		c.Kernel = d.Kernel
	}
	if c.LSH == (lsh.Config{}) {
		c.LSH = d.LSH
	}
	if index.Normalize(c.Backend) == index.BackendMinHash && c.MinHash == (minhash.Config{}) {
		c.MinHash = minhash.DefaultConfig()
	}
	if c.Delta <= 0 {
		c.Delta = d.Delta
	}
	if c.MaxOuter <= 0 {
		c.MaxOuter = d.MaxOuter
	}
	if c.MaxLID <= 0 {
		c.MaxLID = d.MaxLID
	}
	if c.Tol <= 0 {
		c.Tol = d.Tol
	}
	if c.DensityThreshold <= 0 {
		// A zero-value Config must not report every peeled subgraph: the
		// documented default is the paper's π(x) ≥ 0.75, the same way every
		// other zero knob takes its paper value. Callers that genuinely want
		// all subgraphs reported set an explicit tiny positive threshold.
		c.DensityThreshold = d.DensityThreshold
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = d.MinClusterSize
	}
	return c
}

// Cluster is one detected dominant cluster: the support of a (approximately)
// global dense subgraph together with its probabilistic memberships and
// density π(x).
type Cluster struct {
	// Members are the global indices with positive weight, ascending.
	Members []int
	// Weights are the simplex weights parallel to Members.
	Weights []float64
	// Density is π(x) of the converged subgraph.
	Density float64
	// Seed is the initial vertex Algorithm 2 started from.
	Seed int
	// OuterIterations is the number of ALID iterations c used.
	OuterIterations int
	// LIDIterations is the total number of LID steps across all solves.
	LIDIterations int
	// PeakEntries is the largest cached A_{βα} submatrix, in entries.
	PeakEntries int
}

// Size returns the number of member vertices.
func (c *Cluster) Size() int { return len(c.Members) }

// Detector runs ALID over a fixed dataset. It is NOT safe for concurrent use;
// PALID keeps one Detector per executor, all on one index, and each
// executor (a par.Pool worker) calls only its own.
type Detector struct {
	cfg    Config
	oracle *affinity.Oracle
	index  index.Index

	scratch civsScratch // DetectFrom's; DetectAll's peel workers own theirs

	// instrumentation
	peakEntries int
}

// civsScratch is one detection's id-indexed scratch: the LID state's β
// position index and the CIVS candidate deduplication and selection
// buffers (steady-state CIVS calls allocate only the returned ψ slice). A
// scratch serves one detection at a time.
type civsScratch struct {
	pos   []int32 // β position by id (lid.NewState), -1 between detections
	mark  []uint32
	gen   uint32
	seen  index.BucketSet // the (table, bucket) pairs a read has walked
	raw   []int32
	cand  []civsCand
	parts [][]civsCand // per-chunk buffers of the parallel CIVS filter
}

// fit grows the id-indexed slices to n ids, new positions -1 and new marks
// 0. Matrix and index only ever grow in place, so a detection on a grown
// dataset needs nothing more.
func (sc *civsScratch) fit(n int) {
	for len(sc.pos) < n {
		sc.pos = append(sc.pos, -1)
	}
	if len(sc.mark) < n {
		sc.mark = append(sc.mark, make([]uint32, n-len(sc.mark))...)
	}
}

// NewDetector flattens the dataset once (the [][]float64 → matrix.Matrix
// conversion at the API boundary) and delegates to NewDetectorMatrix.
func NewDetector(pts [][]float64, cfg Config) (*Detector, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	m, err := matrix.FromRows(pts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewDetectorMatrix(m, cfg)
}

// BuildIndex builds the configured candidate index over a committed matrix:
// the dense p-stable LSH tables or, for the minhash backend, banded bucket
// tables over the matrix's signature rows. Everything downstream works
// through the returned interface and never names the concrete backend.
func BuildIndex(m *matrix.Matrix, cfg Config) (index.Index, error) {
	switch index.Normalize(cfg.Backend) {
	case index.BackendMinHash:
		return minhash.BuildMatrix(m, cfg.MinHash)
	case index.BackendLSH:
		return lsh.BuildMatrix(m, cfg.LSH)
	default:
		return nil, fmt.Errorf("core: unknown index backend %q", cfg.Backend)
	}
}

// NewDetectorMatrix validates the configuration, wraps the flat dataset and
// builds the candidate index (O(n·d·µ·l), the only global pass ALID makes
// over the data). The matrix is captured by reference and must not be mutated.
func NewDetectorMatrix(m *matrix.Matrix, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	o, err := affinity.NewOracleMatrix(m, cfg.Kernel)
	if err != nil {
		return nil, err
	}
	idx, err := BuildIndex(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, oracle: o, index: idx}, nil
}

// NewDetectorMatrixWithIndex reuses a prebuilt index (PALID executors share
// one). The index must have been built over the same points.
func NewDetectorMatrixWithIndex(m *matrix.Matrix, cfg Config, idx index.Index) (*Detector, error) {
	cfg = cfg.withDefaults()
	o, err := affinity.NewOracleMatrix(m, cfg.Kernel)
	if err != nil {
		return nil, err
	}
	if idx.N() != m.N {
		return nil, fmt.Errorf("core: index over %d points, dataset has %d", idx.N(), m.N)
	}
	return &Detector{cfg: cfg, oracle: o, index: idx}, nil
}

// Oracle exposes the instrumented affinity oracle (for experiments).
func (d *Detector) Oracle() *affinity.Oracle { return d.oracle }

// Index exposes the candidate index (PALID samples seeds from its buckets).
func (d *Detector) Index() index.Index { return d.index }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// PeakEntries returns the largest cached submatrix observed across all
// DetectFrom calls — the measured counterpart of the O(a*(a*+δ)) space bound.
func (d *Detector) PeakEntries() int { return d.peakEntries }

// DetectFrom runs Algorithm 2 from the given seed vertex. active, when
// non-nil, restricts the search to unpeeled vertices (active[i] == true);
// the seed itself must be active.
func (d *Detector) DetectFrom(ctx context.Context, seed int, active []bool) (*Cluster, error) {
	cl, err := d.detectFrom(ctx, seed, active, &d.scratch)
	if err != nil {
		return nil, err
	}
	d.peakEntries = max(d.peakEntries, cl.PeakEntries)
	return cl, nil
}

// detectFrom is DetectFrom on the given scratch. It reads active only at
// ids of seed's LSH component and writes no Detector state, so calls on
// distinct scratch may run concurrently on disjoint components. Whatever
// way it returns, the scratch's position index is -1 everywhere again.
func (d *Detector) detectFrom(ctx context.Context, seed int, active []bool, sc *civsScratch) (*Cluster, error) {
	if active != nil && !active[seed] {
		return nil, fmt.Errorf("core: seed %d is not active", seed)
	}
	sc.fit(d.oracle.N())
	st, err := lid.NewState(d.oracle, seed, sc.pos)
	if err != nil {
		return nil, err
	}
	defer st.Release()
	st.SetPool(d.cfg.Pool)
	lidIters := 0
	outer := 0
	for c := 1; c <= d.cfg.MaxOuter; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		outer = c
		// Step 1: local dense subgraph within β. Solve polls ctx itself
		// (amortized) so even a MaxLID-sized inner budget stays interruptible.
		n, err := st.Solve(ctx, d.cfg.MaxLID, d.cfg.Tol)
		lidIters += n
		if err != nil {
			return nil, err
		}

		// Step 2: ROI from x̂.
		sup, w := st.SupportWeights()
		roi := EstimateROI(d.oracle.Mat, sup, w, st.Density(), d.cfg.Kernel, c)
		if d.cfg.FixedROIGrowth {
			roi.R = roi.Rout
		}
		if c == 1 && d.cfg.FirstRadius > 0 {
			roi.R = d.cfg.FirstRadius
		}

		// Step 3: CIVS retrieval of candidate infective vertices.
		psi := d.civs(sc, st, sup, roi, active)
		if len(psi) == 0 {
			break // nothing new inside the ROI: x̂ is globally immune
		}
		// If every retrieved candidate is non-infective, x̂ is a global dense
		// subgraph up to the LSH approximation (Theorem 1).
		if st.Immune(psi, d.cfg.Tol) {
			break
		}
		st.Extend(psi)
	}
	// Final inner solve in case the loop exited by the iteration cap right
	// after an Extend.
	n, err := st.Solve(ctx, d.cfg.MaxLID, d.cfg.Tol)
	lidIters += n
	if err != nil {
		return nil, err
	}

	members, weights := st.SupportWeights()
	orderMembers(members, weights)
	return &Cluster{
		Members:         members,
		Weights:         weights,
		Density:         st.Density(),
		Seed:            seed,
		OuterIterations: outer,
		LIDIterations:   lidIters,
		PeakEntries:     st.PeakEntries(),
	}, nil
}

// civsGrain is the raw-candidate chunk size of the parallel CIVS filter.
const civsGrain = 512

// civsParMin is the minimum LSH-union size before the filter fans out (per-
// candidate work is one fused distance — cheap — so small unions stay
// serial). A variable only so crosscheck tests can force the parallel path
// on small fixtures; the gate affects speed, never results.
var civsParMin = 2048

// SetCIVSGateForTest overrides civsParMin (crosscheck tests engage the
// parallel candidate filter on small fixtures with it) and returns a
// restore function. Test-only.
func SetCIVSGateForTest(n int) func() {
	old := civsParMin
	civsParMin = n
	return func() { civsParMin = old }
}

// civsCand is a CIVS candidate with its distance to the ROI ball center
// (squared distance for p = 2 — the ranking is identical and the per-
// candidate square root is skipped).
type civsCand struct {
	id   int32
	dist float64
}

// civs implements Step 3: multi-query LSH retrieval from every support point
// (Fig. 4(b)), filtered to the ROI, capped at the δ vertices nearest to D.
// For p = 2 candidates are filtered by comparing fused squared distances
// against R², and the δ-nearest cap uses an O(len) partial selection instead
// of a full sort.
func (d *Detector) civs(sc *civsScratch, st *lid.State, support []int, roi ROI, active []bool) []int {
	sc.gen++
	if sc.gen == 0 { // uint32 wrap: reset scratch
		clear(sc.mark)
		sc.seen.Reset()
		sc.gen = 1
	}
	queries := support
	if d.cfg.SingleQueryCIVS && len(support) > 1 {
		// Ablation: a single locality-sensitive region (Fig. 4(a)). Use the
		// heaviest support point as the lone query.
		best, bestW := support[0], -1.0
		for _, id := range support {
			if w := st.Weight(id); w > bestW {
				best, bestW = id, w
			}
		}
		queries = []int{best}
	}
	// One read for the whole support. It leaves out the support itself,
	// which the filter below would drop anyway (the support lies in β), and
	// keeps every other id in the order a per-query loop finds it.
	raw := d.index.CandidatesByIDsInto(queries, sc.raw[:0], sc.mark, sc.gen, &sc.seen)
	sc.raw = raw

	m := d.oracle.Mat
	euclid := d.cfg.Kernel.P == 2
	bounded := !math.IsInf(roi.R, 1)
	var centerNormSq, r2 float64
	if euclid {
		centerNormSq = vec.Dot(roi.D, roi.D)
		r2 = roi.R * roi.R
	}
	// filter appends the surviving candidates of one raw-id range to buf in
	// range order. It only reads shared state (the matrix, the ROI, the LID
	// state's position index, the active mask), so disjoint ranges can run
	// concurrently.
	filter := func(ids []int32, buf []civsCand) []civsCand {
		for _, id := range ids {
			if active != nil && !active[id] {
				continue
			}
			if st.Contains(int(id)) {
				continue // already in the local range
			}
			var dist float64
			if euclid {
				dist = m.DistSq(int(id), roi.D, centerNormSq)
				if bounded && dist > r2 {
					continue
				}
			} else {
				dist = d.cfg.Kernel.Distance(m.Row(int(id)), roi.D)
				if bounded && dist > roi.R {
					continue
				}
			}
			buf = append(buf, civsCand{id, dist})
		}
		return buf
	}
	// The parallel path splits raw into fixed chunks, filters each into its
	// own buffer, and concatenates the buffers in ascending chunk order —
	// the exact sequence the serial filter produces, whatever the worker
	// count or GOMAXPROCS.
	var cands []civsCand
	if d.cfg.Pool.Parallel() && len(raw) >= civsParMin {
		chunks := par.NumChunks(len(raw), civsGrain)
		for len(sc.parts) < chunks {
			sc.parts = append(sc.parts, nil)
		}
		parts := sc.parts[:chunks]
		d.cfg.Pool.ForChunks(len(raw), civsGrain, func(c, lo, hi int) {
			parts[c] = filter(raw[lo:hi], parts[c][:0])
		})
		cands = sc.cand[:0]
		for _, p := range parts {
			cands = append(cands, p...)
		}
	} else {
		cands = filter(raw, sc.cand[:0])
	}
	sc.cand = cands
	// Keep the δ candidates nearest to the ball center: O(len) quickselect
	// partition, then order just the kept δ (ties broken by id, so the
	// result is deterministic whatever the partition order).
	if len(cands) > d.cfg.Delta {
		selectNearest(cands, d.cfg.Delta)
		cands = cands[:d.cfg.Delta]
		sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = int(c.id)
	}
	return out
}

func candLess(a, b civsCand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// selectNearest partially orders c so that c[:k] holds the k smallest
// elements under candLess: iterative quickselect with median-of-three
// pivoting, O(len(c)) expected time, no allocation.
func selectNearest(c []civsCand, k int) {
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		// Median-of-three: sort c[lo], c[mid], c[hi] in place.
		if candLess(c[mid], c[lo]) {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if candLess(c[hi], c[mid]) {
			c[hi], c[mid] = c[mid], c[hi]
			if candLess(c[mid], c[lo]) {
				c[mid], c[lo] = c[lo], c[mid]
			}
		}
		if hi-lo < 3 {
			return
		}
		pivot := c[mid]
		// Lomuto partition over c[lo+1:hi] with the pivot parked at mid.
		c[mid], c[hi-1] = c[hi-1], c[mid]
		p := lo + 1
		for i := lo + 1; i < hi-1; i++ {
			if candLess(c[i], pivot) {
				c[i], c[p] = c[p], c[i]
				p++
			}
		}
		c[hi-1], c[p] = c[p], c[hi-1]
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// DetectAll runs the peeling scheme of Section 4.4 over every live vertex,
// Peel from id 0 on Config.Pool, and returns the accepted clusters (on
// error, those accepted so far) ordered by decreasing density.
func (d *Detector) DetectAll(ctx context.Context) ([]*Cluster, error) {
	active := make([]bool, d.oracle.N())
	for i := range active {
		active[i] = d.oracle.Mat.Live(i)
	}
	clusters, err := d.Peel(ctx, 0, active, d.cfg.Pool, nil)
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Density > clusters[j].Density })
	return clusters, err
}

// Peel detects a cluster from every id in [from, N) still in active, in
// ascending order, and consumes each detection's support and seed from
// active, accepted (density threshold and minimum size) or not. Ids below
// from may be absorbed but never seed. Peel returns the accepted clusters
// in seed order; a non-nil consumed receives every id it consumed, in no
// set order. Evicted ids must be inactive and evicted from the index too.
//
// With a parallel pool, the components of the index's co-bucketing graph
// (index.Components) peel concurrently, largest first, each in ascending
// seed order on its worker's CIVS scratch. A detection reads and consumes
// only its seed's component, so clusters, weights, densities, PeakEntries
// and the oracle's evaluation count are bit-identical to the serial peel. A
// one-point component is left alone: Algorithm 2 would end at β = {seed}
// with density 0, no LID iteration, no kernel evaluation and one cached
// entry, and reject it. On error, a cancelled context included, Peel
// returns the clusters accepted so far, after every worker has stopped.
func (d *Detector) Peel(ctx context.Context, from int, active []bool, pool *par.Pool, consumed *[]int) ([]*Cluster, error) {
	if pool.Parallel() {
		return d.peelComponents(ctx, from, active, pool, consumed)
	}
	var clusters []*Cluster
	for seed := from; seed < len(active); seed++ {
		if !active[seed] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return clusters, err
		}
		cl, err := d.DetectFrom(ctx, seed, active)
		if err != nil {
			return clusters, err
		}
		if d.consume(cl, active, consumed) {
			clusters = append(clusters, cl)
		}
	}
	return clusters, nil
}

// peelComponents is Peel's parallel arm. Every write lands on a component's
// own entries of active and accepted or on a worker's own slots (worker 0's
// scratch is the Detector's). One-point components poll no context, so a
// cancellation arriving while only they remain is caught by a final poll.
func (d *Detector) peelComponents(ctx context.Context, from int, active []bool, pool *par.Pool, consumed *[]int) ([]*Cluster, error) {
	comps := index.Components(d.index)
	sort.SliceStable(comps, func(a, b int) bool { return len(comps[a]) > len(comps[b]) })

	workers := pool.Workers()
	scratch := make([]*civsScratch, workers)
	scratch[0] = &d.scratch
	peaks := make([]int, workers)
	errs := make([]error, workers)
	consumedBy := make([]*[]int, workers)
	var failed atomic.Bool
	accepted := make([]*Cluster, len(active)-from) // by seed − from
	pool.Each(len(comps), func(w, c int) {
		if len(comps[c]) == 1 {
			if id := int(comps[c][0]); id >= from && active[id] {
				peaks[w] = max(peaks[w], 1)
			}
			return
		}
		if scratch[w] == nil {
			scratch[w] = &civsScratch{}
		}
		if consumed != nil && consumedBy[w] == nil {
			consumedBy[w] = new([]int)
		}
		for _, id := range comps[c] {
			seed := int(id)
			if seed < from || !active[seed] {
				continue
			}
			if failed.Load() {
				return
			}
			cl, err := d.detectFrom(ctx, seed, active, scratch[w])
			if err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
			peaks[w] = max(peaks[w], cl.PeakEntries)
			if d.consume(cl, active, consumedBy[w]) {
				accepted[seed-from] = cl
			}
		}
	})
	d.peakEntries = max(d.peakEntries, slices.Max(peaks))
	for _, ids := range consumedBy {
		if ids != nil {
			*consumed = append(*consumed, *ids...)
		}
	}
	var clusters []*Cluster
	for _, cl := range accepted {
		if cl != nil {
			clusters = append(clusters, cl)
		}
	}
	for _, err := range errs {
		if err != nil {
			return clusters, err
		}
	}
	return clusters, ctx.Err()
}

// consume removes a detection's support and seed from active, appends them
// to consumed when it is non-nil, and reports whether the detection is
// accepted.
func (d *Detector) consume(cl *Cluster, active []bool, consumed *[]int) bool {
	for _, m := range cl.Members {
		active[m] = false
	}
	active[cl.Seed] = false
	if consumed != nil {
		*consumed = append(append(*consumed, cl.Members...), cl.Seed)
	}
	return d.accepts(cl)
}

// accepts reports whether a peeled subgraph is reported as a cluster.
func (d *Detector) accepts(cl *Cluster) bool {
	return cl.Density >= d.cfg.DensityThreshold && cl.Size() >= d.cfg.MinClusterSize
}

// Labels converts a cluster list to a per-point assignment: label[i] is the
// index into clusters of the cluster containing i, or -1 for noise. When
// clusters overlap (PALID), the densest wins, matching Algorithm 3's reducer.
func Labels(n int, clusters []*Cluster) []int {
	label := make([]int, n)
	best := make([]float64, n)
	for i := range label {
		label[i] = -1
		best[i] = math.Inf(-1)
	}
	for ci, cl := range clusters {
		for _, m := range cl.Members {
			if cl.Density > best[m] {
				best[m] = cl.Density
				label[m] = ci
			}
		}
	}
	return label
}

func orderMembers(members []int, weights []float64) {
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return members[idx[a]] < members[idx[b]] })
	m2 := make([]int, len(members))
	w2 := make([]float64, len(weights))
	for i, p := range idx {
		m2[i] = members[p]
		w2[i] = weights[p]
	}
	copy(members, m2)
	copy(weights, w2)
}
