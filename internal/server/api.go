package server

import "alid/internal/core"

// ClusterJSON is the machine-readable form of one dominant cluster. It is
// the single wire struct shared by the daemon's /v1/clusters endpoint and
// cmd/alid's -json output, so offline and served answers are directly
// diffable.
type ClusterJSON struct {
	// ID is the cluster's index in the engine's published cluster list (the
	// value Assign returns in Cluster).
	ID int `json:"id"`
	// Size is the number of member points.
	Size int `json:"size"`
	// Density is the converged graph density π(x).
	Density float64 `json:"density"`
	// Members are the member point indices, ascending. Omitted when the
	// caller asked for summaries only.
	Members []int `json:"members,omitempty"`
	// Weights are the simplex weights parallel to Members.
	Weights []float64 `json:"weights,omitempty"`
}

// ClustersFromCore converts detected clusters to wire form.
func ClustersFromCore(cls []*core.Cluster, withMembers bool) []ClusterJSON {
	out := make([]ClusterJSON, len(cls))
	for i, c := range cls {
		out[i] = ClusterJSON{ID: i, Size: c.Size(), Density: c.Density}
		if withMembers {
			out[i].Members = c.Members
			out[i].Weights = c.Weights
		}
	}
	return out
}

// ClustersResponse is the body of GET /v1/clusters.
type ClustersResponse struct {
	N        int           `json:"n"`
	Commits  int           `json:"commits"`
	Clusters []ClusterJSON `json:"clusters"`
}

// AssignRequest is the body of POST /v1/assign. Exactly one of Point
// (single-query form), Points (batch form), Set (single set, minhash
// backend) or Sets (batched sets) must be set.
type AssignRequest struct {
	Point []float64 `json:"point,omitempty"`
	// Points requests a batched assign: the whole batch is classified
	// against one published engine state and the response is an
	// AssignBatchResponse with one result per point, in order. Batches
	// larger than the server's configured maximum are rejected with 413.
	Points [][]float64 `json:"points,omitempty"`
	// Set is the set form of Point: the element set is MinHash-signed with
	// the engine's parameters and the signature assigned. Requires the
	// minhash backend (400 backend_mismatch on a dense engine).
	Set []string `json:"set,omitempty"`
	// Sets is the batched set form of Points.
	Sets [][]string `json:"sets,omitempty"`
}

// AssignBatchResponse is the body of a successful batched assign.
type AssignBatchResponse struct {
	Results []AssignResponse `json:"results"`
}

// AssignResponse is the body of a successful assign.
type AssignResponse struct {
	// Cluster is the winning cluster id, -1 for noise.
	Cluster int `json:"cluster"`
	// Score is the query's π-affinity against the winning cluster.
	Score float64 `json:"score"`
	// Density is the winning cluster's π(x).
	Density float64 `json:"density"`
	// Infective reports whether the cluster would absorb the query.
	Infective bool `json:"infective"`
	// Candidates is the number of LSH candidates inspected.
	Candidates int `json:"candidates"`
}

// IngestRequest is the body of POST /v1/ingest. Exactly one of Points
// (dense form) or Sets (set form, minhash backend) must be set.
type IngestRequest struct {
	Points [][]float64 `json:"points,omitempty"`
	// Sets is the set form: each element set is MinHash-signed with the
	// engine's parameters and the signatures committed. Requires the
	// minhash backend (400 backend_mismatch on a dense engine).
	Sets [][]string `json:"sets,omitempty"`
	// Wait requests a synchronous commit: the response is sent only after
	// the points are detected and published (and reports any commit error).
	Wait bool `json:"wait,omitempty"`
}

// IngestResponse is the body of a successful ingest.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// EvictRequest is the body of POST /v1/evict.
type EvictRequest struct {
	// IDs are the committed point ids to tombstone. Already-evicted ids are
	// skipped (retries are idempotent); out-of-range ids fail the request.
	IDs []int `json:"ids"`
}

// EvictResponse is the body of a successful evict.
type EvictResponse struct {
	// Evicted is the number of points newly tombstoned.
	Evicted int `json:"evicted"`
	// AlreadyDead is the number of distinct requested ids that were NOT
	// newly tombstoned — already evicted before this call (retries are
	// idempotent, so a full retry reports evicted=0, already_dead=all).
	// Out-of-range ids fail the whole request instead.
	AlreadyDead int `json:"already_dead"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	N                int   `json:"n"`
	LiveN            int   `json:"live_n"`
	Dim              int   `json:"dim"`
	Clusters         int   `json:"clusters"`
	Commits          int   `json:"commits"`
	Evicted          int64 `json:"evicted"`
	QueuedPoints     int64 `json:"queued_points"`
	Assigns          int64 `json:"assigns"`
	Ingested         int64 `json:"ingested"`
	AffinityComputed int64 `json:"affinity_computed"`
	WriterErrors     int64 `json:"writer_errors"`
	UptimeSeconds    int64 `json:"uptime_seconds"`
	// Generation is the id generation of the published state (bumped by
	// every generation compaction; the sum of the shard generations when
	// sharded, so it moves whenever any shard renumbers its ids).
	Generation int `json:"generation"`
	// EverSeenIDs counts ids ever minted across all generations — committed
	// ids plus those retired by past compactions. The gap to N is the
	// bookkeeping that renumbering has reclaimed.
	EverSeenIDs int `json:"ever_seen_ids"`
	// DeltaChainLen is the longest per-shard delta-snapshot chain: the most
	// deltas a restart would replay on any one shard (0 right after a full
	// save, or always 0 when delta snapshots are off).
	DeltaChainLen int `json:"delta_chain_len"`
	// AssignP50/95/99Seconds are single-point assign latency quantiles
	// derived from the engine's power-of-two histogram (upper-bound
	// interpolated; 0 until the first assign or when metrics are compiled
	// out with the noobs tag).
	AssignP50Seconds float64 `json:"assign_p50_seconds"`
	AssignP95Seconds float64 `json:"assign_p95_seconds"`
	AssignP99Seconds float64 `json:"assign_p99_seconds"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error class for callers that dispatch on
	// failure kind rather than message text. Currently only
	// "backend_mismatch" (set form against a dense engine or vice versa);
	// empty for everything else.
	Code string `json:"code,omitempty"`
}

// CodeBackendMismatch is the ErrorResponse.Code of a request whose form
// (set vs dense) does not match the engine's index backend.
const CodeBackendMismatch = "backend_mismatch"
