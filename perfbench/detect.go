package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"time"

	"alid"
	"alid/internal/dataset"
	"alid/internal/eval"
)

// detectN is the detect-batch dataset size. The eta regime (a* = n^0.9/20)
// keeps AutoConfig's 200-point sample inside the planted clusters; the cap
// regime at this scale misses its 50-point clusters and measures a
// misconfiguration instead of the algorithm.
const detectN = 40000

// detectBatch runs AutoConfig, then repeated serial NewDetector + DetectAll
// jobs over one paper eta-regime mixture, scoring each job's labels.
func detectBatch(cfg config) (*run, error) {
	mc := dataset.DefaultMixtureConfig(detectN, dataset.RegimeEta)
	mc.Seed = cfg.seed
	ds, err := dataset.Mixture(mc)
	if err != nil {
		return nil, err
	}
	r := newRun()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1024)
	}

	// AutoConfig runs setupReps times, each followed by an equal share of
	// the jobs, so a slow spell of the host lands on set-up and jobs alike.
	// Jobs are sized to fill about --seconds on the bench host; under
	// --trace 1 odd jobs are traced and even ones are not.
	jobs := max(setupReps, cfg.seconds)
	var acfg alid.Config
	var setupWall, setupCPU []float64
	var jobS, buildS, peelS, untracedJobS []float64
	var digest uint64
	var res eval.Result
	var st alid.Stats
	var clusters int
	gc0 := readGC()
	for i := 0; i < setupReps; i++ {
		var c alid.Config
		tr.enable(cfg.trace)
		w, cpu, err := timeSetup(func() error {
			si, sst := tr.begin()
			var err error
			c, err = alid.AutoConfig(ds.Points)
			tr.end(si, sst, "detect.autoconfig", -1, -1)
			return err
		})
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("AutoConfig: %w", err)
		}
		if i > 0 && c != acfg {
			r.fail("AutoConfig returned %+v, then %+v", acfg, c)
		}
		acfg = c
		setupWall, setupCPU = append(setupWall, w), append(setupCPU, cpu)

		for j := i * jobs / setupReps; j < (i+1)*jobs/setupReps; j++ {
			traced := cfg.trace && j%2 == 1
			tr.enable(traced)
			r.attempted++
			ji, jst := tr.begin()
			t0 := time.Now()
			bi, bst := tr.begin()
			det, err := alid.NewDetector(ds.Points, acfg)
			tr.end(bi, bst, "detect.build", ji, ji)
			if err != nil {
				r.fail("job %d: NewDetector: %v", j, err)
				continue
			}
			t1 := time.Now()
			pi, pst := tr.begin()
			cls, err := det.DetectAll(context.Background())
			tr.end(pi, pst, "detect.peel", ji, ji)
			t2 := time.Now()
			tr.end(ji, jst, "client.job", ji, -1)
			if err != nil {
				r.fail("job %d: DetectAll: %v", j, err)
				continue
			}
			d := clusterDigest(cls)
			if j == 0 {
				digest = d
				res, err = eval.Score(ds.Labels, alid.Labels(ds.N(), cls))
				if err != nil {
					return nil, err
				}
				st, clusters = det.Stats(), len(cls)
			} else if d != digest {
				r.fail("job %d: cluster digest %x differs from job 0's %x", j, d, digest)
			}
			jobS = append(jobS, t2.Sub(t0).Seconds())
			buildS = append(buildS, t1.Sub(t0).Seconds())
			peelS = append(peelS, t2.Sub(t1).Seconds())
			if !traced {
				untracedJobS = append(untracedJobS, t2.Sub(t0).Seconds())
			}
		}
	}
	tr.enable(false)
	gc := readGC().since(gc0)
	if len(jobS) == 0 {
		return nil, fmt.Errorf("every job failed: %v", r.checks)
	}
	if res.NoiseFiltered == 0 {
		r.fail("no noise point filtered: the configuration does not resolve the clusters")
	}

	r.e2e["setup_s"] = median(setupWall)
	r.e2e["quality_avgf"] = res.AVGF
	r.e2e["pts_per_s"] = float64(ds.N()) / median(untracedJobS)
	r.e2e["p50_ms"] = median(peelS) * 1e3
	r.named["detect_pts_per_s"] = metric{r.e2e["pts_per_s"], "points/s"}
	r.named["detect_all_p50_ms"] = metric{r.e2e["p50_ms"], "ms"}
	r.named["quality_avgf"] = metric{res.AVGF, "ratio"}
	r.named["setup_s"] = metric{r.e2e["setup_s"], "s"}
	r.named["setup_cpu_s"] = metric{median(setupCPU), "s"}
	r.named["error_share"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	r.facts["n"] = ds.N()
	r.facts["jobs"] = jobs
	r.facts["cluster_digest"] = fmt.Sprintf("%016x", digest)

	if cfg.trace {
		spans := tr.done()
		var traced []float64
		for _, s := range spans {
			if s.name == "client.job" {
				traced = append(traced, float64(s.dur())/1e9)
			}
		}
		l := r.layers
		l["detect.autoconfig_s"] = median(setupWall)
		l["detect.build_s"] = median(buildS)
		l["detect.peel_s"] = median(peelS)
		l["affinity.kernel_evals"] = float64(st.AffinityComputed)
		l["lid.peak_submatrix_entries"] = float64(st.PeakSubmatrixEntries)
		l["core.clusters"] = float64(clusters)
		l["eval.noise_filtered"] = res.NoiseFiltered
		l["eval.positive_covered"] = res.PositiveCovered
		l["setup_cpu_s"] = median(setupCPU)
		l["runtime.gc_cycles"] = gc.cycles
		l["runtime.gc_pause_ms"] = gc.pauseMS
		l["trace.overhead_share"] = median(traced)/median(untracedJobS) - 1
		l["trace.remainder_share"] = remainderShare(spans, "client.job")
		l["trace.spans"] = float64(len(spans))
		r.facts["trace_dropped_spans"] = tr.dropped.Load()
		if err := writeSpans(filepath.Join(cfg.out, "spans.csv.gz"), spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// clusterDigest hashes every cluster's members, weights and density bits.
func clusterDigest(cls []alid.Cluster) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range cls {
		put(uint64(len(c.Members)))
		for i, m := range c.Members {
			put(uint64(m))
			put(math.Float64bits(c.Weights[i]))
		}
		put(math.Float64bits(c.Density))
	}
	return h.Sum64()
}

// remainderShare is the share of the named root spans' total time that no
// child span covers: what the layer self times leave unaccounted.
func remainderShare(spans []span, root string) float64 {
	self := selfTimes(spans)
	var total, rest int64
	for i, s := range spans {
		if s.name == root {
			total += s.dur()
			rest += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(rest) / float64(total)
}
