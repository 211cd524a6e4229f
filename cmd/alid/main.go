// Command alid detects dominant clusters in a CSV point set.
//
// Input: one point per line, comma-separated features. With -labeled the
// last column is a ground-truth label (as produced by cmd/datagen) used only
// for scoring, never for detection.
//
// Usage:
//
//	datagen -kind mixture -n 5000 -out pts.csv
//	alid -in pts.csv -labeled
//	alid -in pts.csv -labeled -parallel 8
//	alid -in pts.csv -json          # machine-readable clusters (alidd wire format)
//	alid -in sets.csv -backend minhash -bands 16 -rows 4
//
// Configuration is automatic (alid.AutoConfig) unless -k/-r are given.
//
// With -backend minhash the input lines are comma-separated string-element
// sets instead of dense points: each set is MinHash-signed (-bands x -rows
// hashes, -seed) and the signatures are clustered under a Jaccard kernel —
// the same offline answer alidd serves with its minhash backend (-parallel
// applies only to dense inputs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"alid"
	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/dataset"
	"alid/internal/eval"
	"alid/internal/index"
	"alid/internal/minhash"
	"alid/internal/par"
	"alid/internal/server"
)

func main() {
	in := flag.String("in", "", "input CSV (required)")
	labeled := flag.Bool("labeled", false, "treat last column as ground-truth label")
	kScale := flag.Float64("k", 0, "kernel scale (0 = auto)")
	rSeg := flag.Float64("r", 0, "LSH segment length (0 = auto)")
	threshold := flag.Float64("threshold", 0.75, "density threshold for reported clusters")
	parallel := flag.Int("parallel", 0, "run PALID with this many executors (0 = sequential ALID)")
	parallelism := flag.Int("parallelism", -1, "detection worker count: LSH components peel concurrently and each detection fans out (-1 = GOMAXPROCS, AutoConfig's value; 0/1 = serial; results are identical at any setting)")
	top := flag.Int("top", 10, "print at most this many clusters")
	jsonOut := flag.Bool("json", false, "emit clusters as JSON on stdout (same wire struct as alidd's /v1/clusters)")
	backend := flag.String("backend", "lsh", "index backend: lsh (dense points) or minhash (string-element sets under a Jaccard kernel)")
	bands := flag.Int("bands", 16, "MinHash bands, i.e. bucket tables (minhash backend only)")
	rows := flag.Int("rows", 4, "MinHash rows per band; bands*rows hashes per signature (minhash backend only)")
	seed := flag.Int64("seed", 1, "index hash seed (LSH projections or MinHash salts)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if index.Normalize(*backend) == index.BackendMinHash {
		runSets(ctx, *in, *labeled, *kScale, *threshold, *parallelism, *bands, *rows, *seed, *top, *jsonOut)
		return
	}

	pts, labels, err := readCSV(*in, *labeled)
	if err != nil {
		fail(err)
	}
	cfg, err := alid.AutoConfig(pts)
	if err != nil {
		fail(err)
	}
	cfg.Seed = *seed
	if *kScale > 0 {
		cfg.KernelScale = *kScale
	}
	if *rSeg > 0 {
		cfg.LSHSegment = *rSeg
	}
	cfg.DensityThreshold = *threshold
	cfg.Parallelism = *parallelism
	fmt.Fprintf(os.Stderr, "alid: n=%d dim=%d k=%.4g r=%.4g threshold=%.2f\n",
		len(pts), len(pts[0]), cfg.KernelScale, cfg.LSHSegment, cfg.DensityThreshold)

	start := time.Now()
	var clusters []alid.Cluster
	var assign []int
	if *parallel > 0 {
		res, err := alid.DetectParallel(ctx, pts, cfg, alid.ParallelOptions{Executors: *parallel})
		if err != nil {
			fail(err)
		}
		clusters, assign = res.Clusters, res.Assign
	} else {
		det, err := alid.NewDetector(pts, cfg)
		if err != nil {
			fail(err)
		}
		clusters, err = det.DetectAll(ctx)
		if err != nil {
			fail(err)
		}
		assign = alid.Labels(len(pts), clusters)
		st := det.Stats()
		fmt.Fprintf(os.Stderr, "alid: %d kernel evaluations (%.4f%% of n²), peak submatrix %d entries\n",
			st.AffinityComputed,
			100*float64(st.AffinityComputed)/float64(int64(len(pts))*int64(len(pts))),
			st.PeakSubmatrixEntries)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		if err := writeJSON(os.Stdout, pts, clusters, assign, labels, *labeled, elapsed); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("detected %d dominant clusters in %v\n", len(clusters), elapsed.Round(time.Millisecond))
	for i, cl := range clusters {
		if i >= *top {
			fmt.Printf("... and %d more\n", len(clusters)-*top)
			break
		}
		fmt.Printf("cluster %2d: size=%4d density=%.3f members[:8]=%v\n",
			i, cl.Size(), cl.Density, head(cl.Members, 8))
	}
	if *labeled {
		res, err := eval.Score(labels, assign)
		if err != nil {
			fail(err)
		}
		fmt.Printf("AVG-F=%.3f noise_filtered=%.3f positives_covered=%.3f\n",
			res.AVGF, res.NoiseFiltered, res.PositiveCovered)
	}
}

// runSets is the -backend minhash path: element sets are signed up front and
// the signatures clustered under a Jaccard kernel with the exact settings
// alidd's minhash backend uses, so offline and served answers line up.
// Ground-truth scoring is unavailable for set inputs (-labeled only drops the
// label column).
func runSets(ctx context.Context, in string, labeled bool, k, threshold float64, parallelism, bands, rows int, seed int64, top int, jsonOut bool) {
	f, err := os.Open(in)
	if err != nil {
		fail(err)
	}
	sets, err := dataset.ReadSetsCSV(f, in, labeled)
	f.Close()
	if err != nil {
		fail(err)
	}
	mh := minhash.Config{Bands: bands, Rows: rows, Seed: seed}
	if err := mh.Validate(); err != nil {
		fail(err)
	}
	sigs, err := minhash.Signatures(sets, mh)
	if err != nil {
		fail(err)
	}
	if k <= 0 {
		// No data-driven auto-tuning exists for set inputs; 2 matches alidd's
		// minhash default.
		k = 2
	}
	cfg := core.DefaultConfig()
	cfg.Backend = index.BackendMinHash
	cfg.MinHash = mh
	cfg.Kernel = affinity.Kernel{K: k, Jaccard: true}
	cfg.DensityThreshold = threshold
	cfg.Pool = par.New(parallelism)
	fmt.Fprintf(os.Stderr, "alid: sets=%d signature_len=%d k=%.4g threshold=%.2f\n",
		len(sets), mh.SigLen(), k, cfg.DensityThreshold)

	start := time.Now()
	det, err := core.NewDetector(sigs, cfg)
	if err != nil {
		fail(err)
	}
	coreClusters, err := det.DetectAll(ctx)
	if err != nil {
		fail(err)
	}
	clusters := make([]alid.Cluster, len(coreClusters))
	for i, cl := range coreClusters {
		clusters[i] = alid.Cluster{Members: cl.Members, Weights: cl.Weights, Density: cl.Density}
	}
	assign := core.Labels(len(sigs), coreClusters)
	elapsed := time.Since(start)

	if jsonOut {
		if err := writeJSON(os.Stdout, sigs, clusters, assign, nil, false, elapsed); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("detected %d dominant clusters in %v\n", len(clusters), elapsed.Round(time.Millisecond))
	for i, cl := range clusters {
		if i >= top {
			fmt.Printf("... and %d more\n", len(clusters)-top)
			break
		}
		fmt.Printf("cluster %2d: size=%4d density=%.3f members[:8]=%v\n",
			i, cl.Size(), cl.Density, head(cl.Members, 8))
	}
}

// jsonEval is the optional scoring block of the -json output.
type jsonEval struct {
	AVGF             float64 `json:"avg_f"`
	NoiseFiltered    float64 `json:"noise_filtered"`
	PositivesCovered float64 `json:"positives_covered"`
}

// jsonOutput is the -json document: the clusters use the same wire struct
// (server.ClusterJSON) that alidd's /v1/clusters endpoint serves, so batch
// and served answers are directly diffable.
type jsonOutput struct {
	N              int                  `json:"n"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Clusters       []server.ClusterJSON `json:"clusters"`
	Eval           *jsonEval            `json:"eval,omitempty"`
}

func writeJSON(w io.Writer, pts [][]float64, clusters []alid.Cluster, assign, labels []int, labeled bool, elapsed time.Duration) error {
	out := jsonOutput{
		N:              len(pts),
		ElapsedSeconds: elapsed.Seconds(),
		Clusters:       make([]server.ClusterJSON, len(clusters)),
	}
	for i, cl := range clusters {
		out.Clusters[i] = server.ClusterJSON{
			ID:      i,
			Size:    cl.Size(),
			Density: cl.Density,
			Members: cl.Members,
			Weights: cl.Weights,
		}
	}
	if labeled {
		res, err := eval.Score(labels, assign)
		if err != nil {
			return err
		}
		out.Eval = &jsonEval{
			AVGF:             res.AVGF,
			NoiseFiltered:    res.NoiseFiltered,
			PositivesCovered: res.PositiveCovered,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func readCSV(path string, labeled bool) ([][]float64, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return dataset.ReadPointsCSV(f, path, labeled)
}

func head(a []int, n int) []int {
	if len(a) <= n {
		return a
	}
	return a[:n]
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "alid: %v\n", err)
	os.Exit(1)
}
