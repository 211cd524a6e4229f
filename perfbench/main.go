// Command perfbench is the repository's end-to-end benchmark. It drives the
// program only through public entry points: the alid library for offline
// detection, and for serving the stack alidd assembles (engine.New or
// engine.NewSharded, then server.New, then a net/http listener on
// 127.0.0.1) under closed-loop load over loopback TCP.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
//
// Every input is generated from --seed before any timer starts. Each timed
// phase is a fixed amount of work sized from --seconds, so one setting of
// --seconds always ends in the same program state. The last line of standard
// output is the result: {"correct","attempted","failed","metrics"}, with the
// end-to-end metrics under --trace 0 and the per-layer metrics under
// --trace 1. The line before it is a report with the host and run facts and
// each workload's own named metrics (see layers.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits are the end-to-end metrics every workload reports (BENCHMARK.json
// end_to_end). What each one measures on each workload is in layers.json.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"quality_avgf": "ratio",
	"peak_rss_mb":  "MiB",
	"pts_per_s":    "points/s",
	"p50_ms":       "ms",
}

// layerUnits are the per-layer metrics (BENCHMARK.json per_layer). A
// workload that does not run a layer reports 0 for it.
var layerUnits = map[string]string{
	"net.client_overhead_us":           "us",
	"server.assign_self_us":            "us",
	"server.batch_self_us_per_pt":      "us",
	"server.ingest_self_us":            "us",
	"server.resp_bytes":                "bytes",
	"engine.assign_us":                 "us",
	"engine.assign_batch_us_per_pt":    "us",
	"engine.candidates_per_assign":     "count",
	"engine.exact_scan_share":          "ratio",
	"engine.infective_share":           "ratio",
	"engine.gather_single_us":          "us",
	"engine.ingest_us":                 "us",
	"engine.flush_ms":                  "ms",
	"engine.queue_wait_ms":             "ms",
	"engine.writer_errors":             "count",
	"engine.churn_assign_tail_ms":      "ms",
	"stream.commits":                   "count",
	"stream.commit_ms":                 "ms",
	"stream.dirty_check_ms":            "ms",
	"stream.detect_ms":                 "ms",
	"stream.reconverged_per_commit":    "count",
	"stream.evict_reconverged":         "count",
	"stream.compactions":               "count",
	"stream.compaction_ms":             "ms",
	"detect.autoconfig_s":              "s",
	"detect.build_s":                   "s",
	"detect.peel_s":                    "s",
	"affinity.kernel_evals":            "count",
	"affinity.kernel_evals_per_commit": "count",
	"lid.peak_submatrix_entries":       "count",
	"core.clusters":                    "count",
	"eval.noise_filtered":              "ratio",
	"eval.positive_covered":            "ratio",
	"lsh.segments":                     "count",
	"lsh.max_bucket":                   "count",
	"lsh.compactions":                  "count",
	"snapshot.save_ms":                 "ms",
	"snapshot.bytes":                   "bytes",
	"snapshot.load_ms":                 "ms",
	"matrix.chunks_released":           "count",
	"runtime.gc_cycles":                "count",
	"runtime.gc_pause_ms":              "ms",
	"runtime.alloc_bytes_per_req":      "bytes",
	"setup_cpu_s":                      "s",
	"trace.overhead_share":             "ratio",
	"trace.remainder_share":            "ratio",
	"trace.spans":                      "count",
}

// run is what a workload hands back: the checks it made, the universal
// end-to-end metrics, its own named metrics and, when traced, the layers.
type run struct {
	attempted, failed int
	checks            []string // failed output checks, empty when correct
	e2e               map[string]float64
	named             map[string]metric
	layers            map[string]float64
	facts             map[string]any
}

func newRun() *run {
	return &run{e2e: map[string]float64{}, named: map[string]metric{}, layers: map[string]float64{}, facts: map[string]any{}}
}

// fail records a failed output check; it also counts as a failed operation.
func (r *run) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.failed++
}

type config struct {
	seed    int64
	seconds int
	trace   bool
	out     string // directory for snapshots and span files
}

var workloads = map[string]func(config) (*run, error){
	"detect-batch": detectBatch,
	"serve-read":   serveRead,
	"serve-churn":  serveChurn,
}

func main() {
	workload := flag.String("workload", "", "detect-batch, serve-read, serve-churn, or all to run each in turn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "run length the fixed work is sized for")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for snapshots and span files")
	flag.Parse()
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: filepath.Join(*out, "run-"+*workload)}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	facts := hostFacts(*workload, cfg)
	r, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.e2e["peak_rss_mb"] = peakRSSMiB()
	if !cfg.trace {
		for _, name := range sortedKeys(e2eUnits) {
			if r.e2e[name] == 0 {
				r.fail("end-to-end metric %s is 0", name)
			}
		}
	}
	for k, v := range r.facts {
		facts[k] = v
	}
	facts["failed_checks"] = r.checks
	if err := emit(os.Stdout, r, facts, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process so peak RSS
// and the heap stay per workload, and returns 1 if any of them failed.
func runAll(seed int64, seconds, trace int, out string) int {
	code := 0
	for _, name := range sortedKeys(workloads) {
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// emit prints the report line and then the result line.
func emit(w *os.File, r *run, facts map[string]any, traced bool) error {
	units, values := e2eUnits, r.e2e
	if traced {
		units, values = layerUnits, r.layers
	}
	metrics := make(map[string]metric, len(units))
	for name, unit := range units {
		metrics[name] = metric{Value: values[name], Unit: unit}
	}
	report := map[string]any{"report": map[string]any{"facts": facts, "named": r.named}}
	res := map[string]any{
		"correct":   len(r.checks) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(report); err != nil {
		return err
	}
	return enc.Encode(res)
}

// hostFacts stamps a result with what tells a noisy run from one that did
// more work.
func hostFacts(workload string, cfg config) map[string]any {
	var load [3]float64
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		for i := range load {
			load[i] = float64(si.Loads[i]) / 65536
		}
	}
	return map[string]any{
		"workload":    workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"traced":      cfg.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"loadavg":     load,
		"started_utc": time.Now().UTC().Format(time.RFC3339),
		"calib_ms":    calibrate(),
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setupReps is how many times every workload builds its set-up; setup_s is
// the median.
const setupReps = 5

// timeSetup runs one set-up and returns its wall and CPU seconds.
func timeSetup(build func() error) (wall, cpu float64, err error) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	err = build()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// calibrate times a fixed floating-point loop. Stamped on every result, it
// tells a slow host apart from a program that did more work.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		calibSink = x
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return best
}

var calibSink float64
