// Command alidd is the dominant-cluster serving daemon: it detects clusters
// in an initial dataset (or restores a snapshot), then serves assign /
// ingest / cluster-listing traffic over HTTP while absorbing new points in
// the background.
//
// Usage:
//
//	datagen -kind mixture -n 5000 -out pts.csv
//	alidd -in pts.csv -labeled -addr :8080 -snapshot alid.snap -snapshot-interval 60s
//
//	curl -s localhost:8080/v1/assign -d '{"point":[0.5,0.5]}'
//	curl -s localhost:8080/v1/assign -d '{"points":[[0.5,0.5],[0.1,0.9]]}'
//	curl -s localhost:8080/v1/ingest -d '{"points":[[0.4,0.6]],"wait":true}'
//	curl -s localhost:8080/v1/evict -d '{"ids":[17,42]}'
//	curl -s localhost:8080/v1/clusters?members=false
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// Observability: GET /metrics serves Prometheus text exposition for the
// whole serving pipeline (assign latency and cluster scans, ingest queue,
// commit phases, eviction, snapshots, HTTP). -pprof-addr starts a separate
// net/http/pprof listener (separate so profiling is never exposed on the
// serving port). Logs are structured (log/slog): text to stderr by default,
// JSON with -log-json, request sampling via -log-every.
//
// With -retention-points / -retention-age the daemon evicts expired points
// after every commit, keeping steady-state memory bounded by the window
// however long it runs (the fix for the append-only daemon's unbounded
// growth).
//
// If the snapshot exists at startup it is restored — configuration,
// matrix, index and clusters all come from the snapshot, so a crash-restart
// resumes serving without re-detection (-in and the tuning flags are
// ignored). A final snapshot is written on graceful shutdown.
//
// Every save is one manifest at -snapshot naming one chain per shard: a
// full snapshot plus the small CRC-guarded deltas saved since, files beside
// the manifest named <snapshot>.s<shard>.<save>.{base,delta,chain}. With
// -snapshot-delta-every K, periodic saves append deltas carrying only the
// points, evictions and cluster changes since the previous save, and each
// shard writes a full snapshot again every K deltas (or after its own
// generation compaction); without it every save is full. Restart restores
// each shard's base and replays its deltas — byte-identically to a full
// save. A damaged chain tail falls back to the longest complete prefix. A
// save is committed by the manifest's rename alone, so a failed or
// interrupted save leaves the previous one restorable. Older layouts (a
// single snapshot file of any version, a <snapshot>.chain delta chain, a
// version 1 manifest over <snapshot>.shard<i> files) still restore — the
// single-engine ones at -shards 1 only — and the first save replaces them.
// A save written by this release does not restore on older releases.
//
// With -compact-share S the engine renumbers its id space whenever the
// evicted share of committed ids exceeds S: live points get fresh dense ids
// in a new generation (old ids remain translatable one generation back via
// the published id map), and all bookkeeping scaled by ids-ever-seen is
// released — steady-state memory tracks the LIVE set however long the
// daemon runs. /v1/stats reports the generation and ever-seen id count.
//
// With -backend minhash the daemon serves string-element sets instead of
// dense points: -in lines are comma-separated element sets, each set is
// MinHash-signed (-bands x -rows hashes, -seed) and the signatures flow
// through the same detect/serve/evict/snapshot pipeline under a Jaccard
// kernel. The HTTP API switches to the set forms ({"set":[...]} /
// {"sets":[[...],...]}); dense point requests get 400 backend_mismatch.
//
// With -shards N the daemon runs N independent engines behind one
// scatter-gather router (one shard is the plain engine, unlabeled metrics
// included): ingested points are routed to exactly one shard by a stable
// id hash, assigns fan out to all shards and merge deterministically, and
// commits proceed on N writers concurrently. The shard count is part of
// the saved layout, so a save restores only at the same -shards —
// mismatches are refused at startup with a clear error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alid"
	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/dataset"
	"alid/internal/engine"
	"alid/internal/index"
	"alid/internal/lsh"
	"alid/internal/minhash"
	"alid/internal/par"
	"alid/internal/server"
	"alid/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	in := flag.String("in", "", "initial points CSV (optional; ignored when restoring a snapshot)")
	labeled := flag.Bool("labeled", false, "treat the CSV's last column as a label (dropped)")
	snap := flag.String("snapshot", "", "snapshot manifest: restored at startup if present, written on shutdown (chain, snapshot and delta files live beside it)")
	shards := flag.Int("shards", 1, "independent serving shards behind one scatter-gather router (1 = single engine; the count is baked into saved snapshots and point ids)")
	snapEvery := flag.Duration("snapshot-interval", 0, "also snapshot periodically (0 = only on shutdown)")
	snapDeltaEvery := flag.Int("snapshot-delta-every", 0, "write delta snapshots between full ones: each shard writes a full snapshot every K deltas, small CRC-guarded deltas in between (0 = every save is full)")
	compactShare := flag.Float64("compact-share", 0, "renumber ids into a fresh generation when the evicted share of committed ids exceeds this (0 = never; e.g. 0.5 compacts once half the id space is dead)")
	batch := flag.Int("batch", 256, "stream commit batch size")
	queue := flag.Int("queue", 1024, "ingest queue capacity")
	kScale := flag.Float64("k", 0, "kernel scale (0 = auto from -in data)")
	rSeg := flag.Float64("r", 0, "LSH segment length (0 = auto from -in data)")
	mu := flag.Int("mu", 12, "LSH projections per table")
	tables := flag.Int("tables", 8, "LSH tables")
	seed := flag.Int64("seed", 1, "index hash seed (LSH projections or MinHash salts)")
	backend := flag.String("backend", "lsh", "index backend: lsh (dense points) or minhash (string-element sets under a Jaccard kernel)")
	bands := flag.Int("bands", 16, "MinHash bands, i.e. bucket tables (minhash backend only)")
	rows := flag.Int("rows", 4, "MinHash rows per band; bands*rows hashes per signature (minhash backend only)")
	threshold := flag.Float64("threshold", 0.75, "density threshold for maintained clusters")
	parallelism := flag.Int("parallelism", 0, "intra-detection worker count for commit-side detection (0/1 = serial, -1 = GOMAXPROCS; results are identical at any setting). The initial commit peels its LSH components on GOMAXPROCS workers at any setting")
	retPoints := flag.Int("retention-points", 0, "evict the oldest live points beyond this cap after each commit (0 = unlimited; bounds daemon memory under continuous ingest)")
	retAge := flag.Duration("retention-age", 0, "evict points older than this (0 = unlimited). Passing EITHER retention flag explicitly replaces a restored snapshot's whole stored policy — pass both as 0 to disable retention on restore")
	assignBatchMax := flag.Int("assign-batch-max", 1024, "maximum points per batched /v1/assign request (larger batches get 413)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled; keep it off the serving port)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug includes per-publish engine lines)")
	logEvery := flag.Int("log-every", 100, "sample 1 of every N successful HTTP requests in the log (errors always log)")
	flag.Parse()
	// Explicit presence, not value, decides the override: `-retention-points 0
	// -retention-age 0` must be able to CLEAR a restored snapshot's policy,
	// which a value check alone cannot express.
	retentionSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "retention-points" || f.Name == "retention-age" {
			retentionSet = true
		}
	})

	logger, err := buildLogger(*logJSON, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alidd:", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if *compactShare < 0 || *compactShare >= 1 {
		fatal("startup", fmt.Errorf("-compact-share %g: want 0 (off) or a fraction in (0,1)", *compactShare))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	retention := stream.Retention{MaxPoints: *retPoints, MaxAge: *retAge}
	idxCfg := indexConfig{Backend: *backend, Mu: *mu, Tables: *tables, Bands: *bands, Rows: *rows, Seed: *seed}
	eng, err := buildServing(logger, *shards, *in, *labeled, *snap, *batch, *queue, *kScale, *rSeg, idxCfg, *threshold, par.New(*parallelism), retention, retentionSet, *compactShare)
	if err != nil {
		fatal("startup", err)
	}
	defer eng.Close()
	st := eng.Stats()
	logger.Info("serving",
		"addr", *addr, "shards", *shards, "n", st.N, "live", st.LiveN, "dim", st.Dim,
		"clusters", st.Clusters, "commits", st.Commits)
	if r := eng.Config().Retention; r.Enabled() {
		logger.Info("retention enabled (enforced after every commit)", "max_points", r.MaxPoints, "max_age", r.MaxAge)
	} else {
		logger.Info("retention disabled — memory grows with every ingested point")
	}

	if *pprofAddr != "" {
		go servePprof(ctx, logger, *pprofAddr)
	}
	var saver *engine.ChainWriter
	if *snap != "" {
		saver = engine.NewChainWriter(eng, *snap, *snapDeltaEvery)
		if *snapEvery > 0 {
			go snapshotLoop(ctx, logger, eng, saver, *snap, *snapEvery)
		}
	}

	opts := server.Options{
		AssignBatchMax: *assignBatchMax,
		Logger:         logger,
		LogEvery:       *logEvery,
	}
	if saver != nil {
		opts.DeltaChainLen = saver.Len
	}
	srv := server.New(eng, opts)
	if err := srv.Serve(ctx, *addr); err != nil {
		fatal("serve", err)
	}
	logger.Info("shut down")

	// Final snapshot: flush buffered points first so nothing queued is lost.
	if *snap != "" {
		flushCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := eng.Flush(flushCtx); err != nil {
			logger.Warn("final flush", "err", err)
		}
		if eng.Stats().N == 0 {
			logger.Info("nothing committed; skipping final snapshot")
			return
		}
		saveSnapshot(logger, saver, *snap, "final")
	}
}

// buildLogger constructs the process logger: slog text or JSON on stderr at
// the requested level.
func buildLogger(asJSON bool, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

// servePprof runs the pprof handlers on their own listener so profiling
// never shares the serving port. The explicit mux avoids depending on
// http.DefaultServeMux side effects.
func servePprof(ctx context.Context, logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := server.NewHTTPServer(addr, mux)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
	}()
	logger.Info("pprof listening", "addr", addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Warn("pprof server", "err", err)
	}
}

// indexConfig bundles the index-backend flags: which backend plus the
// per-backend tuning knobs (LSH: mu/tables; MinHash: bands/rows; both: seed).
type indexConfig struct {
	Backend     string
	Mu, Tables  int // LSH projections per table / table count
	Bands, Rows int // MinHash bands / rows per band
	Seed        int64
}

// buildServing builds the serving engine, a router over `shards` engines:
// restored from the snapshot when one exists (any layout; the saved shard
// count and index backend must match), otherwise detected from the CSV or
// started empty.
func buildServing(logger *slog.Logger, shards int, in string, labeled bool, snap string, batch, queue int, k, r float64, idx indexConfig, threshold float64, pool *par.Pool, retention stream.Retention, retentionSet bool, compactShare float64) (*engine.Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("-shards %d: want >= 1", shards)
	}
	switch index.Normalize(idx.Backend) {
	case index.BackendLSH, index.BackendMinHash:
	default:
		return nil, fmt.Errorf("-backend %q: want lsh or minhash", idx.Backend)
	}
	if snap != "" {
		if _, err := os.Stat(snap); err == nil {
			// The snapshot carries the previous process's retention policy;
			// explicitly passed -retention-* flags replace it wholesale
			// (operational knob — explicit zeros disable retention).
			var override *stream.Retention
			if retentionSet {
				override = &retention
			}
			start := time.Now()
			sh, err := engine.LoadSharded(snap, engine.ShardedLoadOptions{
				Shards: shards, QueueSize: queue, Pool: pool,
				Retention: override, Logger: logger,
				Backend:             idx.Backend,
				CompactEvictedShare: compactShare,
			})
			if err != nil {
				return nil, fmt.Errorf("restore %s: %w", snap, err)
			}
			logger.Info("restored snapshot", "path", snap, "shards", shards, "elapsed", time.Since(start))
			return sh, nil
		}
	}

	cfg, pts, err := detectConfig(logger, in, labeled, k, r, idx, threshold, pool)
	if err != nil {
		return nil, err
	}
	return engine.NewSharded(engine.ShardedConfig{
		Engine: engine.Config{
			Core: cfg, BatchSize: batch, QueueSize: queue, Retention: retention, Logger: logger,
			CompactEvictedShare: compactShare,
		},
		Shards: shards,
	}, pts)
}

// detectConfig reads the initial CSV (if any) and resolves the detection
// configuration, auto-tuning the kernel scale and LSH segment from the data
// when not pinned by flags. With the minhash backend the CSV
// holds element sets, the kernel is Jaccard (no auto-tuning; -r is unused)
// and the returned points are MinHash signatures.
func detectConfig(logger *slog.Logger, in string, labeled bool, k, r float64, idx indexConfig, threshold float64, pool *par.Pool) (core.Config, [][]float64, error) {
	if index.Normalize(idx.Backend) == index.BackendMinHash {
		return detectConfigMinHash(logger, in, labeled, k, idx, threshold, pool)
	}
	var pts [][]float64
	if in != "" {
		var err error
		pts, err = readCSV(in, labeled)
		if err != nil {
			return core.Config{}, nil, err
		}
	}
	if (k <= 0 || r <= 0) && len(pts) > 1 {
		auto, err := alid.AutoConfig(pts)
		if err != nil {
			return core.Config{}, nil, err
		}
		if k <= 0 {
			k = auto.KernelScale
		}
		if r <= 0 {
			r = auto.LSHSegment
		}
		logger.Info("auto-tuned", "k", k, "r", r)
	}
	if k <= 0 {
		k = 1
	}
	if r <= 0 {
		r = 1
	}
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: k, P: 2}
	cfg.LSH = lsh.Config{Projections: idx.Mu, Tables: idx.Tables, R: r, Seed: idx.Seed}
	cfg.DensityThreshold = threshold
	cfg.Pool = pool
	return cfg, pts, nil
}

// detectConfigMinHash is detectConfig's minhash branch: -in lines are
// comma-separated element sets, signed up front so detection, serving and
// snapshots all operate on plain signature rows. The kernel is Jaccard over
// signature positions; -k keeps its role as the kernel scale (default 2 — no
// data-driven auto-tuning exists for set inputs).
func detectConfigMinHash(logger *slog.Logger, in string, labeled bool, k float64, idx indexConfig, threshold float64, pool *par.Pool) (core.Config, [][]float64, error) {
	mh := minhash.Config{Bands: idx.Bands, Rows: idx.Rows, Seed: idx.Seed}
	if err := mh.Validate(); err != nil {
		return core.Config{}, nil, err
	}
	var pts [][]float64
	if in != "" {
		sets, err := readSetCSV(in, labeled)
		if err != nil {
			return core.Config{}, nil, err
		}
		pts, err = minhash.Signatures(sets, mh)
		if err != nil {
			return core.Config{}, nil, err
		}
		logger.Info("signed element sets", "sets", len(sets), "signature_len", mh.SigLen())
	}
	if k <= 0 {
		k = 2
	}
	cfg := core.DefaultConfig()
	cfg.Backend = index.BackendMinHash
	cfg.MinHash = mh
	cfg.Kernel = affinity.Kernel{K: k, Jaccard: true}
	cfg.DensityThreshold = threshold
	cfg.Pool = pool
	return cfg, pts, nil
}

// saveSnapshot persists and logs one save (shared by the periodic loop and
// the shutdown path).
func saveSnapshot(logger *slog.Logger, saver *engine.ChainWriter, path, kind string) {
	start := time.Now()
	if err := saver.Save(); err != nil {
		logger.Warn("snapshot failed", "kind", kind, "path", path, "err", err)
		return
	}
	logger.Info("snapshot saved", "kind", kind, "path", path,
		"chain_len", saver.Len(), "elapsed", time.Since(start))
}

// snapshotLoop periodically persists the published state until ctx ends.
func snapshotLoop(ctx context.Context, logger *slog.Logger, eng engine.Serving, saver *engine.ChainWriter, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if eng.Stats().N == 0 {
				continue
			}
			saveSnapshot(logger, saver, path, "periodic")
		}
	}
}

// readCSV parses one point per line, comma-separated; with labeled the last
// column is dropped (cmd/datagen's interchange format, shared with cmd/alid
// via dataset.ReadPointsCSV).
func readCSV(path string, labeled bool) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, _, err := dataset.ReadPointsCSV(f, path, labeled)
	return pts, err
}

// readSetCSV parses one element set per line, comma-separated strings; with
// labeled the last column is dropped (mirroring readCSV so the same dataset
// layout works for both backends, shared with cmd/alid via
// dataset.ReadSetsCSV).
func readSetCSV(path string, labeled bool) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadSetsCSV(f, path, labeled)
}
