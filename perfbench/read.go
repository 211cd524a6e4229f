package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"alid/internal/engine"
	"alid/internal/eval"
	"alid/internal/server"
)

const (
	probeN     = 4096 // labeled probe points per serving run
	batchSize  = 64   // points per batch-form request
	clientsN   = 2    // closed-loop client connections (nproc on the bench host)
	readRounds = 20   // single and batch phases alternate this many times
	assignTail = 99   // percentile reported as assign_tail_ms
)

// serveRead builds a 1-shard engine behind the HTTP server and sends
// single-point, then 64-point batch /v1/assign requests from two
// closed-loop clients. Nothing is ingested.
func serveRead(cfg config) (*run, error) {
	g := newBlobGen(cfg.seed)
	pts, _ := g.initial(serveN)
	probes, labels := g.mixed(probeN)
	singles, batches := singleBodies(probes), batchBodies(probes, batchSize)
	// Fixed work: at --seconds 20 a 2-vCPU host spends about 10 s on the
	// single-point and 21 s on the batch requests in its slower periods,
	// half that in its faster ones. The batch form gets the larger share
	// because its throughput varied most from run to run.
	nSingle := 9000 * cfg.seconds
	nBatch := 1200 * cfg.seconds

	r := newRun()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(3*(nSingle+nBatch)/2 + 1024)
		tr.enable(false) // set-up and the verification pass run untraced
	}
	var st *stack
	var setupWall, setupCPU []float64
	for i := 0; i < setupReps; i++ {
		w, cpu, err := timeSetup(func() error {
			eng, err := engine.New(engine.Config{Core: serveConfig(), BatchSize: 256, QueueSize: 1024}, pts)
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
	defer st.close()

	transport := newTransport(clientsN)
	defer transport.CloseIdleConnections()
	cls := make([]*client, clientsN)
	for i := range cls {
		cls[i] = newClient(transport, st.url, tr)
	}

	// Untimed verification pass: the expected bytes of every request.
	wantSingle, answers, err := verifySingles(r, cls[0], singles)
	if err != nil {
		return nil, err
	}
	wantBatch := make([][]byte, len(batches))
	for b, body := range batches {
		r.attempted++
		code, resp, err := cls[0].post("/v1/assign", "batch", body)
		if err != nil || code != http.StatusOK {
			r.fail("verify batch %d: status %d, %v", b, code, err)
			continue
		}
		wantBatch[b] = bytes.Clone(resp)
		var br server.AssignBatchResponse
		if err := json.Unmarshal(resp, &br); err != nil || len(br.Results) != batchSize {
			r.fail("verify batch %d: %d results, %v", b, len(br.Results), err)
			continue
		}
		for k, a := range br.Results {
			s := answers[b*batchSize+k]
			// Candidates is the one field the batch form may answer differently.
			if a.Cluster != s.Cluster || a.Score != s.Score || a.Density != s.Density || a.Infective != s.Infective {
				r.fail("batch %d point %d answers %+v, single-point form %+v", b, k, a, s)
			}
		}
	}
	res, err := eval.Score(labels, predicted(answers))
	if err != nil {
		return nil, err
	}

	// Timed phases; a reply counts as failed unless byte-identical to the
	// verification pass, so clients do no JSON work while timed.
	sendSingle := func(c *client, k int) bool {
		code, resp, err := c.post("/v1/assign", "assign", singles[k%probeN])
		return err == nil && code == http.StatusOK && bytes.Equal(resp, wantSingle[k%probeN])
	}
	sendBatch := func(c *client, k int) bool {
		code, resp, err := c.post("/v1/assign", "batch", batches[k%len(batches)])
		return err == nil && code == http.StatusOK && bytes.Equal(resp, wantBatch[k%len(batches)])
	}
	// The phases alternate in rounds, so a slow spell of the host lands on
	// both forms alike. Under --trace 1 odd rounds are traced and even ones
	// are not; the gap between them is the tracing overhead.
	var single, batch, tSingle, tBatch rounds
	var gc gcReading
	for k := 0; k < readRounds; k++ {
		traced := cfg.trace && k%2 == 1
		tr.enable(traced)
		gc0 := readGC()
		s := closedLoop(cls, k*nSingle/readRounds, (k+1)*nSingle/readRounds, sendSingle)
		if !traced {
			gc = gc.plus(readGC().since(gc0))
		}
		b := closedLoop(cls, k*nBatch/readRounds, (k+1)*nBatch/readRounds, sendBatch)
		tr.enable(false)
		if traced {
			tSingle.add(s, 1)
			tBatch.add(b, batchSize)
		} else {
			single.add(s, 1)
			batch.add(b, batchSize)
		}
	}
	r.attempted += single.n + batch.n + tSingle.n + tBatch.n
	r.failed += single.failed + batch.failed + tSingle.failed + tBatch.failed
	if f := single.failed + batch.failed + tSingle.failed + tBatch.failed; f > 0 {
		r.checks = append(r.checks, fmt.Sprintf("%d replies differ from the verification pass", f))
	}
	sl, err := summarize(single.lat, assignTail, single.elapsed)
	if err != nil {
		return nil, err
	}
	bl, err := summarize(batch.lat, 90, batch.elapsed)
	if err != nil {
		return nil, err
	}
	batchPts := median(batch.rates)

	r.e2e["setup_s"] = median(setupWall)
	r.e2e["quality_avgf"] = res.AVGF
	r.e2e["pts_per_s"] = batchPts
	r.e2e["p50_ms"] = sl.P50ms
	n := r.named
	n["setup_s"] = metric{r.e2e["setup_s"], "s"}
	n["setup_cpu_s"] = metric{median(setupCPU), "s"}
	n["quality_avgf"] = metric{res.AVGF, "ratio"}
	n["assign_rps"] = metric{median(single.rates), "req/s"}
	n["assign_p50_ms"] = metric{sl.P50ms, "ms"}
	n["assign_tail_ms"] = metric{sl.Tailms, "ms"}
	n["batch_pts_per_s"] = metric{batchPts, "points/s"}
	n["error_share"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	r.facts["assign_latency"] = sl
	r.facts["batch_latency"] = bl
	r.facts["noise_filtered"] = res.NoiseFiltered
	r.facts["positive_covered"] = res.PositiveCovered

	if cfg.trace {
		spans := tr.done()
		c, err := readCounters(st.eng.Obs())
		if err != nil {
			return nil, err
		}
		sa := splitOf(spans, "assign", "assign")
		sb := splitOf(spans, "batch", "assign_batch")
		l := r.layers
		l["net.client_overhead_us"] = sa.perRequestUS(sa.Net, 1)
		l["server.assign_self_us"] = sa.perRequestUS(sa.Server, 1)
		l["engine.assign_us"] = sa.perRequestUS(sa.Engine["assign"], 1)
		l["server.batch_self_us_per_pt"] = sb.perRequestUS(sb.Server, batchSize)
		l["engine.assign_batch_us_per_pt"] = sb.perRequestUS(sb.Engine["assign_batch"], batchSize)
		l["server.resp_bytes"] = meanLen(wantSingle)
		assignLayers(l, c, answers)
		l["eval.noise_filtered"] = res.NoiseFiltered
		l["eval.positive_covered"] = res.PositiveCovered
		l["setup_cpu_s"] = median(setupCPU)
		l["runtime.gc_cycles"] = gc.cycles
		l["runtime.gc_pause_ms"] = gc.pauseMS
		l["runtime.alloc_bytes_per_req"] = gc.allocBytes / float64(single.n)
		tl, err := summarize(tSingle.lat, assignTail, tSingle.elapsed)
		if err != nil {
			return nil, err
		}
		l["trace.overhead_share"] = tl.P50ms/sl.P50ms - 1
		l["trace.remainder_share"] = float64(sa.Remainder+sb.Remainder) / float64(sa.Client+sb.Client)
		l["trace.spans"] = float64(len(spans))
		r.facts["trace_dropped_spans"] = tr.dropped.Load()
		r.facts["traced_assign_latency"] = tl
		r.facts["split_assign"] = sa
		r.facts["split_batch"] = sb
		if err := writeSpans(filepath.Join(cfg.out, "spans.csv.gz"), spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// verifySingles sends every single-point body once, untimed, and returns
// the reply bytes and their decoded answers.
func verifySingles(r *run, c *client, bodies [][]byte) ([][]byte, []server.AssignResponse, error) {
	want := make([][]byte, len(bodies))
	answers := make([]server.AssignResponse, len(bodies))
	for i, body := range bodies {
		r.attempted++
		code, resp, err := c.post("/v1/assign", "assign", body)
		if err != nil || code != http.StatusOK {
			r.fail("verify probe %d: status %d, %v", i, code, err)
			answers[i].Cluster = -1
			continue
		}
		want[i] = bytes.Clone(resp)
		if err := json.Unmarshal(resp, &answers[i]); err != nil {
			return nil, nil, fmt.Errorf("probe %d reply: %w", i, err)
		}
	}
	return want, answers, nil
}

// predicted turns assign answers into labels: the cluster when the answer
// is infective (the cluster would absorb the point), otherwise -1.
func predicted(as []server.AssignResponse) []int {
	out := make([]int, len(as))
	for i, a := range as {
		out[i] = -1
		if a.Infective && a.Cluster >= 0 {
			out[i] = a.Cluster
		}
	}
	return out
}

// assignLayers fills the assign-path layer metrics read from the engine's
// registry and the probe answers.
func assignLayers(l map[string]float64, c counters, answers []server.AssignResponse) {
	var cands, inf float64
	for _, a := range answers {
		cands += float64(a.Candidates)
		if a.Infective {
			inf++
		}
	}
	l["engine.candidates_per_assign"] = cands / float64(len(answers))
	l["engine.infective_share"] = inf / float64(len(answers))
	if all := c.sum("alid_assign_cluster_scans_total"); all > 0 {
		l["engine.exact_scan_share"] = c.sum("alid_assign_cluster_scans_total", `tier="exact"`) / all
	}
	l["core.clusters"] = c.sum("alid_clusters")
	l["lsh.segments"] = c.sum("alid_lsh_segments")
	l["lsh.max_bucket"] = maxOf(c, "alid_lsh_max_bucket_size")
	l["affinity.kernel_evals"] = c.sum("alid_kernel_evals_total")
}

func maxOf(c counters, name string) float64 {
	m := 0.0
	for _, s := range c {
		if s.name == name && s.value > m {
			m = s.value
		}
	}
	return m
}

func meanLen(bs [][]byte) float64 {
	t := 0
	for _, b := range bs {
		t += len(b)
	}
	return float64(t) / float64(len(bs))
}

// rounds accumulates the chunks of one request form across rounds.
type rounds struct {
	n, failed int
	lat       []time.Duration
	rates     []float64 // windowed rates of every chunk
	elapsed   time.Duration
}

func (r *rounds) add(p phase, perReq float64) {
	r.n += len(p.lat)
	r.failed += p.failed
	r.lat = append(r.lat, p.lat...)
	r.rates = append(r.rates, windowRates(p.ends, perReq)...)
	r.elapsed += p.elapsed
}
