package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"alid/internal/engine"
	"alid/internal/eval"
	"alid/internal/server"
	"alid/internal/stream"
)

const (
	churnShards   = 4                     // ROADMAP's sharded configuration
	compactShare  = 0.1                   // auto-compaction trigger (evicted share of committed ids)
	saveEvery     = 25                    // SaveFiles after every this many committed batches
	restarts      = 5                     // save → close → restore → first assign cycles
	readerPause   = 2 * time.Millisecond  // the reader's fixed pause between requests
	visibleTail   = 90                    // percentile reported as visible_tail_ms
	churnReadTail = 99                    // percentile of engine.churn_assign_tail_ms
	ingestReply   = "{\"accepted\":64}\n" // the /v1/ingest reply to a 64-point batch
)

// serveChurn builds a 4-shard engine whose retention window equals its
// initial size, then posts 64-point wait:true ingest batches from one
// closed-loop writer beside one paced reader, saving every saveEvery
// batches, and ends with save → restore → assign cycles.
func serveChurn(cfg config) (*run, error) {
	g := newBlobGen(cfg.seed)
	pts, _ := g.initial(serveN)
	probes, labels := g.mixed(probeN)
	// Fixed work sized to fill about --seconds on the bench host.
	nBatch := max(100, 25*cfg.seconds) // at least 100, so p90 keeps 10 samples beyond
	arrivals, _ := g.mixed(nBatch * batchSize)
	ingest := make([][]byte, nBatch)
	for b := range ingest {
		ingest[b] = mustJSON(server.IngestRequest{Points: arrivals[b*batchSize : (b+1)*batchSize], Wait: true})
	}
	reads := singleBodies(probes)
	snap := filepath.Join(cfg.out, "churn.snap")
	ecfg := engine.Config{
		Core: serveConfig(), BatchSize: 256, QueueSize: 1024,
		Retention:           stream.Retention{MaxPoints: serveN},
		CompactEvictedShare: compactShare,
	}

	r := newRun()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1 << 18) // room for every span of a 60-second run
		tr.enable(false)
	}
	var st *stack
	var setupWall, setupCPU []float64
	for i := 0; i < setupReps; i++ {
		w, cpu, err := timeSetup(func() error {
			eng, err := engine.NewSharded(engine.ShardedConfig{Engine: ecfg, Shards: churnShards}, pts)
			if err != nil {
				return err
			}
			if st, err = startStack(eng, tr); err != nil {
				eng.Close()
			}
			return err
		})
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWall, setupCPU = append(setupWall, w), append(setupCPU, cpu)
		if i < setupReps-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	sharded := st.eng.(*engine.Sharded)

	transport := newTransport(clientsN)
	defer transport.CloseIdleConnections()
	writer := newClient(transport, st.url, tr)
	reader := newClient(transport, st.url, tr)

	// Writer phase, with the reader running beside it until it ends.
	var readLat []time.Duration
	var readFailed int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(readerPause):
			}
			t0 := time.Now()
			code, resp, err := reader.post("/v1/assign", "assign", reads[k%probeN])
			readLat = append(readLat, time.Since(t0))
			var a server.AssignResponse
			if err != nil || code != http.StatusOK || json.Unmarshal(resp, &a) != nil {
				readFailed++
			}
		}
	}()
	var visible, ends []time.Duration
	var saveMS []float64
	var tracedVisible []time.Duration
	writeFailed := 0
	w0 := time.Now()
	for b := 0; b < nBatch; b++ {
		// Under --trace 1 every other block of batches is traced; the gap to
		// the untraced blocks is the tracing overhead.
		traced := cfg.trace && (b*10/nBatch)%2 == 1
		tr.enable(traced)
		t0 := time.Now()
		code, resp, err := writer.post("/v1/ingest", "ingest", ingest[b])
		d := time.Since(t0)
		ends = append(ends, time.Since(w0))
		if traced {
			tracedVisible = append(tracedVisible, d)
		} else {
			visible = append(visible, d)
		}
		if err != nil || code != http.StatusAccepted || string(resp) != ingestReply {
			writeFailed++
			r.checks = append(r.checks, fmt.Sprintf("ingest batch %d: status %d, %v", b, code, err))
		}
		if (b+1)%saveEvery == 0 {
			si, sst := tr.begin()
			t0 := time.Now()
			err := sharded.SaveFiles(snap)
			tr.end(si, sst, "snapshot.save", -1, -1)
			saveMS = append(saveMS, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return nil, fmt.Errorf("SaveFiles: %w", err)
			}
		}
	}
	writePhase := time.Since(w0)
	close(stop)
	wg.Wait()
	tr.enable(false)
	r.attempted += nBatch + len(readLat)
	r.failed += writeFailed + readFailed
	if readFailed > 0 {
		r.checks = append(r.checks, fmt.Sprintf("%d of %d reads failed during churn", readFailed, len(readLat)))
	}

	ctx := context.Background()
	if err := sharded.Flush(ctx); err != nil {
		r.fail("flush after churn: %v", err)
	}
	stats := sharded.Stats()
	if stats.LiveN != serveN {
		r.fail("live points %d after churn, want the retention window %d", stats.LiveN, serveN)
	}
	c, err := readCounters(sharded.Obs())
	if err != nil {
		return nil, err
	}
	verifier := newClient(transport, st.url, nil)
	want, answers, err := verifySingles(r, verifier, reads)
	if err != nil {
		return nil, err
	}
	res, err := eval.Score(labels, predicted(answers))
	if err != nil {
		return nil, err
	}

	// Restart cycles: each is save → close → restore → first correct assign.
	var restartS, loadMS []float64
	for i := 0; i < restarts; i++ {
		r.attempted++
		t0 := time.Now()
		if err := st.eng.(*engine.Sharded).SaveFiles(snap); err != nil {
			return nil, fmt.Errorf("SaveFiles: %w", err)
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("close before restore: %w", err)
		}
		closed = true
		// alidd restarts as a new process: collect the closed engine so its
		// garbage does not stand in the restored one's peak memory.
		runtime.GC()
		l0 := time.Now()
		eng, err := engine.LoadSharded(snap, engine.ShardedLoadOptions{
			Shards: churnShards, QueueSize: 1024, Backend: "lsh", CompactEvictedShare: compactShare,
		})
		loadMS = append(loadMS, float64(time.Since(l0).Nanoseconds())/1e6)
		if err != nil {
			return nil, fmt.Errorf("LoadSharded: %w", err)
		}
		if st, err = startStack(eng, nil); err != nil {
			eng.Close()
			return nil, err
		}
		closed = false
		probe := newClient(transport, st.url, nil)
		code, resp, err := probe.post("/v1/assign", "assign", reads[0])
		restartS = append(restartS, time.Since(t0).Seconds())
		if err != nil || code != http.StatusOK || !bytes.Equal(resp, want[0]) {
			r.fail("restart %d: first assign differs from before the restart", i)
		}
		if i == 0 {
			for k, body := range reads {
				r.attempted++
				code, resp, err := probe.post("/v1/assign", "assign", body)
				if err != nil || code != http.StatusOK || !bytes.Equal(resp, want[k]) {
					r.fail("restored engine answers probe %d differently", k)
				}
			}
		}
	}

	// A traced run times only the untraced half of the batches, which may be
	// too few for the tail; it reports layers, not visible_tail_ms.
	vl, err := summarize(visible, visibleTail, writePhase)
	if err != nil && !cfg.trace {
		return nil, err
	}
	// The paced reader's sample count follows the writer phase's length, so
	// a short run may not support its tail; that is a fact, not a failure.
	rl, err := summarize(readLat, churnReadTail, writePhase)
	if err != nil {
		r.facts["reader_tail"] = err.Error()
	}
	ingestPts := medianRate(ends, batchSize)
	r.e2e["setup_s"] = median(setupWall)
	r.e2e["quality_avgf"] = res.AVGF
	r.e2e["pts_per_s"] = ingestPts
	r.e2e["p50_ms"] = vl.P50ms
	n := r.named
	n["setup_s"] = metric{r.e2e["setup_s"], "s"}
	n["setup_cpu_s"] = metric{median(setupCPU), "s"}
	n["quality_avgf"] = metric{res.AVGF, "ratio"}
	n["ingest_pts_per_s"] = metric{ingestPts, "points/s"}
	n["visible_p50_ms"] = metric{vl.P50ms, "ms"}
	n["visible_tail_ms"] = metric{vl.Tailms, "ms"}
	n["assign_p50_ms"] = metric{rl.P50ms, "ms"}
	n["restart_s"] = metric{median(restartS), "s"}
	n["error_share"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	r.facts["visible_latency"] = vl
	r.facts["reader_latency"] = rl
	r.facts["live_points"] = stats.LiveN
	r.facts["generation"] = stats.Generation
	r.facts["noise_filtered"] = res.NoiseFiltered

	if cfg.trace {
		spans := tr.done()
		si := splitOf(spans, "ingest", "ingest", "flush")
		l := r.layers
		l["server.ingest_self_us"] = si.perRequestUS(si.Server, 1)
		l["engine.ingest_us"] = si.perRequestUS(si.Engine["ingest"], 1)
		l["engine.flush_ms"] = si.perRequestUS(si.Engine["flush"], 1) / 1e3
		sa := splitOf(spans, "assign", "assign")
		l["engine.assign_us"] = sa.perRequestUS(sa.Engine["assign"], 1)
		l["net.client_overhead_us"] = sa.perRequestUS(sa.Net, 1)
		l["engine.gather_single_us"] = c.meanOf("alid_gather_duration_seconds", `mode="single"`) * 1e6
		l["engine.queue_wait_ms"] = c.meanOf("alid_ingest_wait_seconds") * 1e3
		l["engine.writer_errors"] = float64(stats.WriterErrors)
		l["engine.churn_assign_tail_ms"] = rl.Tailms
		commits := c.sum("alid_commits_total")
		l["stream.commits"] = commits
		l["stream.commit_ms"] = c.meanOf("alid_commit_duration_seconds") * 1e3
		l["stream.dirty_check_ms"] = c.meanOf("alid_commit_phase_seconds", `phase="dirty_check"`) * 1e3
		l["stream.detect_ms"] = c.meanOf("alid_commit_phase_seconds", `phase="detect"`) * 1e3
		if commits > 0 {
			l["stream.reconverged_per_commit"] = c.sum("alid_commit_dirty_reconverged_total") / commits
			l["affinity.kernel_evals_per_commit"] = c.sum("alid_kernel_evals_total") / commits
		}
		l["stream.evict_reconverged"] = c.sum("alid_evict_reconverged_total")
		l["stream.compactions"] = c.sum("alid_generation_compactions_total")
		l["stream.compaction_ms"] = c.meanOf("alid_generation_compaction_seconds") * 1e3
		l["lsh.compactions"] = c.sum("alid_lsh_compactions_total")
		l["matrix.chunks_released"] = c.sum("alid_matrix_chunks_released_total")
		assignLayers(l, c, answers)
		delete(l, "affinity.kernel_evals") // per commit above; the total mixes assign and commit work
		l["eval.noise_filtered"] = res.NoiseFiltered
		l["eval.positive_covered"] = res.PositiveCovered
		l["snapshot.save_ms"] = median(saveMS)
		l["snapshot.bytes"] = snapshotBytes(snap)
		l["snapshot.load_ms"] = median(loadMS)
		l["setup_cpu_s"] = median(setupCPU)
		tl, err := summarize(tracedVisible, 50, writePhase)
		if err != nil {
			return nil, err
		}
		l["trace.overhead_share"] = tl.P50ms/vl.P50ms - 1
		l["trace.remainder_share"] = float64(si.Remainder) / float64(si.Client)
		l["trace.spans"] = float64(len(spans))
		r.facts["trace_dropped_spans"] = tr.dropped.Load()
		r.facts["split_ingest"] = si
		r.facts["split_assign"] = sa
		if err := writeSpans(filepath.Join(cfg.out, "spans.csv.gz"), spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// snapshotBytes is the size of a sharded save: the manifest plus its shard
// files.
func snapshotBytes(manifest string) float64 {
	var t int64
	for i := -1; i < churnShards; i++ {
		name := manifest
		if i >= 0 {
			name = fmt.Sprintf("%s.shard%d", manifest, i)
		}
		if fi, err := os.Stat(name); err == nil {
			t += fi.Size()
		}
	}
	return float64(t)
}
