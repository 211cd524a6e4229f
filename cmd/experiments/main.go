// Command experiments regenerates the tables and figures of the ALID paper
// (VLDB 2015). Each -fig target runs the corresponding workload sweep from
// internal/expfig and prints the series the paper plots: AVG-F, runtime,
// memory and sparse degree per method.
//
// Usage:
//
//	experiments -fig all            # everything at quick scale
//	experiments -fig 7a -scale 4    # the ω-regime sweep, 4× larger
//	experiments -fig tab2           # PALID speedup table
//
// Scale 1 finishes in minutes; the paper's absolute sizes are out of reach
// for a quick run, but the reported shapes (method ordering, growth orders,
// crossover points) are the reproduction target and are stable across scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"alid/internal/expfig"
)

func main() {
	fig := flag.String("fig", "all", "figure/table to regenerate: 6a 6b 7a 7b 7c 7d 9 10 11a 11b tab1 tab2 ablate all")
	scale := flag.Float64("scale", 1, "workload scale multiplier (1 = quick)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	csvPath := flag.String("csv", "", "also append raw measurement rows to this CSV file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := expfig.Options{Scale: *scale}
	if !*quiet {
		opts.Log = os.Stderr
	}
	targets := strings.Split(*fig, ",")
	if *fig == "all" {
		targets = []string{"6a", "6b", "7a", "7b", "7c", "7d", "9", "10", "11a", "11b", "tab1", "tab2", "ablate"}
	}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}
	for _, target := range targets {
		if err := run(ctx, strings.TrimSpace(target), opts, csvFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", target, err)
			os.Exit(1)
		}
	}
}

func run(ctx context.Context, target string, opts expfig.Options, csvFile *os.File) error {
	w := os.Stdout
	export := func(s expfig.Series) {
		if csvFile != nil {
			if err := s.WriteCSV(csvFile); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
			}
		}
	}
	switch target {
	case "6a", "6b":
		variant := "nart"
		if target == "6b" {
			variant = "subndi"
		}
		s, err := expfig.Fig6(ctx, variant, opts)
		if err != nil {
			return err
		}
		export(s)
		expfig.PrintTable(w, "Fig 6 ("+variant+") — detection quality vs LSH segment fraction", s, "avgf")
		expfig.PrintTable(w, "Fig 6 ("+variant+") — runtime vs LSH segment fraction", s, "runtime_s")
		expfig.PrintTable(w, "Fig 6 ("+variant+") — sparse degree vs LSH segment fraction", s, "sparse_degree")
	case "7a", "7b", "7c", "7d":
		workload := map[string]string{"7a": "omega", "7b": "eta", "7c": "cap", "7d": "ndi"}[target]
		s, err := expfig.Fig7(ctx, workload, opts)
		if err != nil {
			return err
		}
		export(s)
		expfig.PrintTable(w, "Fig 7 ("+workload+") — runtime vs data size", s, "runtime_s")
		expfig.PrintTable(w, "Fig 7 ("+workload+") — memory vs data size", s, "memory_mb")
		expfig.PrintTable(w, "Fig 7 ("+workload+") — AVG-F vs data size", s, "avgf")
	case "9":
		s, err := expfig.Fig9(ctx, opts)
		if err != nil {
			return err
		}
		export(s)
		expfig.PrintTable(w, "Fig 9 — SIFT-like runtime vs data size", s, "runtime_s")
		expfig.PrintTable(w, "Fig 9 — SIFT-like memory vs data size", s, "memory_mb")
	case "10":
		s, err := expfig.Fig10(ctx, opts)
		if err != nil {
			return err
		}
		export(s)
		fmt.Fprintf(w, "\n== Fig 10 — visual-word detection vs noise filtering ==\n")
		fmt.Fprintf(w, "%-8s %8s %12s  %s\n", "method", "AVG-F", "runtime(s)", "detail")
		for _, p := range s {
			fmt.Fprintf(w, "%-8s %8.3f %12.3f  %s\n", p.Method, p.AVGF, p.Runtime.Seconds(), p.Note)
		}
	case "11a", "11b":
		variant := "nart"
		if target == "11b" {
			variant = "subndi"
		}
		s, err := expfig.Fig11(ctx, variant, opts)
		if err != nil {
			return err
		}
		export(s)
		expfig.PrintTable(w, "Fig 11 ("+variant+") — AVG-F vs noise degree", s, "avgf")
	case "tab1":
		rows, all, err := expfig.Table1(ctx, opts)
		if err != nil {
			return err
		}
		export(all)
		fmt.Fprintf(w, "\n== Table 1 — measured growth orders of ALID (log-log slopes) ==\n")
		fmt.Fprintf(w, "%-8s %14s %14s %14s %14s\n", "regime", "time slope", "theory", "mem slope", "theory")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %14.2f %14.2f %14.2f %14.2f\n",
				r.Regime, r.TimeSlope, r.TheoryTime, r.MemSlope, r.TheoryMem)
		}
	case "tab2":
		s, err := expfig.Table2(ctx, opts)
		if err != nil {
			return err
		}
		export(s)
		fmt.Fprintf(w, "\n== Table 2 — PALID speedup ==\n")
		fmt.Fprintf(w, "%-14s %10s %12s  %s\n", "method", "executors", "runtime(s)", "detail")
		for _, p := range s {
			fmt.Fprintf(w, "%-14s %10.0f %12.3f  %s\n", p.Method, p.X, p.Runtime.Seconds(), p.Note)
		}
	case "ablate":
		s, err := expfig.Ablate(ctx, opts)
		if err != nil {
			return err
		}
		export(s)
		fmt.Fprintf(w, "\n== Ablations — design choices of Section 4 ==\n")
		fmt.Fprintf(w, "%-16s %8s %12s %12s\n", "variant", "AVG-F", "runtime(s)", "memory(MB)")
		for _, p := range s {
			fmt.Fprintf(w, "%-16s %8.3f %12.3f %12.3f\n",
				p.Method, p.AVGF, p.Runtime.Seconds(), float64(p.MemoryBytes)/(1<<20))
		}
	default:
		return fmt.Errorf("unknown target %q", target)
	}
	return nil
}
