package engine

import (
	"alid/internal/obs"
)

// engineMetrics is the serve-path instrumentation: assign latency and batch
// shape, exact cluster scans (the live analogue of the paper's
// kernel-evaluation accounting), LSH retrieval width, ingest wait, and
// snapshot persistence cost. Observations happen on the lock-free read
// path, so every primitive is one atomic add — no locks, no allocations —
// and under the noobs build tag the whole layer compiles to nothing.
//
// Metrics are diagnostics under the same carve-out as the kernel-eval
// counters: no assign, commit or eviction decision ever reads one, so all
// bit-identical crosschecks hold with instrumentation enabled.
type engineMetrics struct {
	assignSingle *obs.Histogram // full Assign call latency
	assignBatch  *obs.Histogram // full AssignBatch call latency (whole batch)
	batchPoints  *obs.Histogram // queries per AssignBatch call

	// LSH retrieval width per query: the single-point path retrieves
	// deduplicated candidate points, the batch path candidate clusters
	// (the PR-6 Candidates convention, kept apart by the kind label).
	candPoints   *obs.Histogram
	candClusters *obs.Histogram

	// Candidate clusters scored exactly over their full member set (either
	// form). Every candidate is, so the tier="exact" label has no sibling.
	scanExact *obs.Counter

	noise *obs.Counter // assigns answered Cluster = -1

	ingestWait *obs.Histogram // time Ingest spent blocked on a full queue

	snapSave   *obs.Histogram // snapshot encode+write duration
	snapLoad   *obs.Histogram // snapshot read+restore duration
	saveBytes  *obs.Counter   // snapshot bytes written
	loadBytes  *obs.Counter   // snapshot bytes read
	deltaBytes *obs.Counter   // delta-snapshot bytes written (subset of saves)
}

// newEngineMetrics builds the engine's serve-path metrics; extra is the
// engine's pre-rendered shard label fragment (empty for an unsharded
// engine), appended to every family so N shard engines can share one
// registry without colliding.
func newEngineMetrics(reg *obs.Registry, extra string) *engineMetrics {
	l := func(labels string) string { return obs.Labels(labels, extra) }
	m := &engineMetrics{
		assignSingle: obs.NewHistogram("alid_assign_duration_seconds", "Assign call latency by serving mode (batch observes the whole call).", l(`mode="single"`), 1e-9),
		assignBatch:  obs.NewHistogram("alid_assign_duration_seconds", "Assign call latency by serving mode (batch observes the whole call).", l(`mode="batch"`), 1e-9),
		batchPoints:  obs.NewHistogram("alid_assign_batch_points", "Queries per batched assign call.", l(""), 1),

		candPoints:   obs.NewHistogram("alid_assign_candidates", "LSH candidates retrieved per query (points on the single path, clusters on the batch path).", l(`kind="points"`), 1),
		candClusters: obs.NewHistogram("alid_assign_candidates", "LSH candidates retrieved per query (points on the single path, clusters on the batch path).", l(`kind="clusters"`), 1),

		scanExact: obs.NewCounter("alid_assign_cluster_scans_total", "Candidate-cluster scans by tier (every candidate is scored exactly).", l(`tier="exact"`)),

		noise: obs.NewCounter("alid_assign_noise_total", "Assigns answered as noise (no maintained cluster shares a bucket).", l("")),

		ingestWait: obs.NewHistogram("alid_ingest_wait_seconds", "Time Ingest spent enqueueing (non-trivial only when the queue is full).", l(""), 1e-9),

		snapSave:   obs.NewHistogram("alid_snapshot_duration_seconds", "Snapshot persistence duration by operation.", l(`op="save"`), 1e-9),
		snapLoad:   obs.NewHistogram("alid_snapshot_duration_seconds", "Snapshot persistence duration by operation.", l(`op="load"`), 1e-9),
		saveBytes:  obs.NewCounter("alid_snapshot_bytes_total", "Snapshot bytes moved by operation.", l(`op="save"`)),
		loadBytes:  obs.NewCounter("alid_snapshot_bytes_total", "Snapshot bytes moved by operation.", l(`op="load"`)),
		deltaBytes: obs.NewCounter("alid_snapshot_delta_bytes", "Delta snapshot bytes written (each delta covers one batch window, so this grows with the batch rate, not n).", l("")),
	}
	if reg != nil {
		reg.MustRegister(
			m.assignSingle, m.assignBatch, m.batchPoints,
			m.candPoints, m.candClusters,
			m.scanExact,
			m.noise, m.ingestWait,
			m.snapSave, m.snapLoad, m.saveBytes, m.loadBytes, m.deltaBytes,
		)
	}
	return m
}

const kernelEvalsHelp = "Kernel (affinity) evaluations by path: commit is the stream's work (the initial detection, dirtiness checks, re-convergence, new-seed probes and eviction repair), assign is assign-path scoring."

// registerEngineFuncs exposes the engine's existing atomic counters and the
// published generation's sizes as scrape-time callbacks. Every closure
// reads only atomics or fields of an immutable published state, so scrapes
// are race-free against assigns, ingest and the writer.
func (e *Engine) registerEngineFuncs(reg *obs.Registry, extra string) {
	l := func(labels string) string { return obs.Labels(labels, extra) }
	view := func(f func(st *state) int64) func() int64 {
		return func() int64 {
			st := e.state.Load()
			if st == nil {
				return 0
			}
			return f(st)
		}
	}
	reg.MustRegister(
		obs.NewGaugeFunc("alid_points", "Committed points by liveness (committed counts every id ever committed; ids are stable).", l(`state="committed"`),
			view(func(st *state) int64 {
				if st.view.Mat == nil {
					return 0
				}
				return int64(st.view.Mat.N)
			})),
		obs.NewGaugeFunc("alid_points", "Committed points by liveness (committed counts every id ever committed; ids are stable).", l(`state="live"`),
			view(func(st *state) int64 {
				if st.view.Mat == nil {
					return 0
				}
				return int64(st.view.Mat.LiveCount())
			})),
		obs.NewGaugeFunc("alid_clusters", "Maintained dominant clusters in the published view.", l(""),
			view(func(st *state) int64 { return int64(len(st.view.Clusters)) })),
		obs.NewGaugeFunc("alid_generation", "Id generation of the published view (bumps on every generation compaction).", l(""),
			view(func(st *state) int64 { return int64(st.view.Generation) })),
		obs.NewGaugeFunc("alid_ever_seen_ids", "Ids ever minted across all generations (committed ids plus those retired by past compactions).", l(""),
			view(func(st *state) int64 { return int64(st.view.EverSeenIDs) })),
		obs.NewGaugeFunc("alid_ingest_queue_points", "Ingested-but-uncommitted points (queue plus writer buffer).", l(""),
			e.queued.Load),
		obs.NewCounterFunc("alid_assigns_total", "Queries served by Assign and AssignBatch.", l(""),
			e.assigns.Load),
		obs.NewCounterFunc("alid_ingested_points_total", "Points accepted by the writer.", l(""),
			e.ingested.Load),
		obs.NewCounterFunc("alid_writer_errors_total", "Commit or ingest failures inside the writer.", l(""),
			e.writerErrs.Load),
		obs.NewCounterFunc("alid_commits_total", "Batch commits reflected in the published view.", l(""),
			view(func(st *state) int64 { return int64(st.view.Commits) })),
		// LSH read-side shape, computed over the immutable published index
		// (an O(live) walk per scrape — fine at scrape cadence).
		obs.NewGaugeFunc("alid_lsh_segments", "Sealed LSH segments across tables in the published index.", l(""),
			view(func(st *state) int64 {
				if st.view.Index == nil {
					return 0
				}
				return int64(st.view.Index.Stats().Segments)
			})),
		obs.NewGaugeFunc("alid_lsh_buckets", "Distinct live LSH buckets in the published index.", l(""),
			view(func(st *state) int64 {
				if st.view.Index == nil {
					return 0
				}
				return int64(st.view.Index.Stats().Buckets)
			})),
		obs.NewGaugeFunc("alid_lsh_max_bucket_size", "Largest live LSH bucket in the published index (read-cost ceiling per probe).", l(""),
			view(func(st *state) int64 {
				if st.view.Index == nil {
					return 0
				}
				return int64(st.view.Index.Stats().MaxBucketSize)
			})),
		// Stats.AffinityComputed is the sum of the two series.
		obs.NewCounterFunc("alid_kernel_evals_total", kernelEvalsHelp, l(`path="commit"`),
			view(func(st *state) int64 { return st.view.KernelEvals })),
		obs.NewCounterFunc("alid_kernel_evals_total", kernelEvalsHelp, l(`path="assign"`),
			func() int64 {
				n := e.pastComputed.Load()
				if st := e.state.Load(); st != nil && st.oracle != nil {
					n += st.oracle.Computed()
				}
				return n
			}),
	)
}
