// Command swordoffline runs SWORD's offline data-race analysis over an
// existing trace directory — the second, decoupled half of the pipeline,
// typically executed after a production run collected its logs (possibly
// on a different machine, as the paper distributes it across a cluster).
//
// Usage:
//
//	swordoffline -logdir /tmp/trace            # analyze a collected trace
//	swordoffline -logdir /tmp/trace -workers 1 # single-worker (paper's OA)
//	swordoffline -logdir /tmp/trace -batch 4   # bounded-memory streaming
//	swordoffline -logdir /tmp/trace -metrics   # per-phase timing breakdown
//	swordoffline -logdir /tmp/trace -metrics-out m.json  # export snapshot
//	swordoffline -logdir /tmp/trace -check     # validate integrity first
//	swordoffline -logdir /tmp/trace -follow    # tail a still-running collection
//
// A damaged trace (a crashed run, a filled disk, bit rot) is analyzed as
// far as it survived: the partial report is printed, and the damage is
// reported on stderr and in the exit code.
//
// Exit codes: 0 = clean trace, no races; 3 = races found; 4 = damaged
// trace, no races in what survived; 5 = damaged trace with races; 1 =
// analysis failed (or -check found damage); 2 = usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sword"
)

func main() {
	logdir := flag.String("logdir", "", "directory containing sword_*.log / sword_*.meta files")
	workers := flag.Int("workers", 0, "analysis workers (<= 0 = GOMAXPROCS)")
	batch := flag.Int("batch", 0, "bound memory by analyzing N top-level region subtrees at a time (0 = all at once)")
	memBudget := flag.Int64("mem-budget", 0, "bound memory to this many bytes of trace volume; the subtree batch is derived (0 = unbounded, -batch wins)")
	noSolver := flag.Bool("nosolver", false, "disable the strided-interval constraint solver (ablation)")
	noCompact := flag.Bool("nocompact", false, "disable interval-tree compaction (ablation)")
	allRaces := flag.Bool("all-races", false, "disable race-site suppression: solve every instance of already-confirmed race sites so per-race counts are exact")
	noPrefilter := flag.Bool("no-prefilter", false, "disable the summary-based pair pre-filter (ablation; identical race set, more comparisons)")
	follow := flag.Bool("follow", false, "online mode: tail a trace a collector is still writing, reporting races as they are detected, until the run ends")
	check := flag.Bool("check", false, "validate trace integrity before analyzing")
	metrics := flag.Bool("metrics", false, "print the observability breakdown: per-phase timings and pipeline counters")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot to this file (.csv for CSV, else JSON)")
	quiet := flag.Bool("q", false, "print only the summary line")
	flag.Parse()

	if *logdir == "" {
		fmt.Fprintln(os.Stderr, "swordoffline: -logdir is required")
		os.Exit(2)
	}
	// Opening a store would silently create a missing directory and then
	// "analyze" an empty trace; a typo'd path must be an error instead.
	if fi, err := os.Stat(*logdir); err != nil {
		fmt.Fprintln(os.Stderr, "swordoffline:", err)
		os.Exit(1)
	} else if !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "swordoffline: %s is not a directory\n", *logdir)
		os.Exit(1)
	}
	if *check {
		if err := sword.ValidateTrace(*logdir); err != nil {
			fmt.Fprintln(os.Stderr, "swordoffline: trace integrity:", err)
			os.Exit(1)
		}
		fmt.Println("trace integrity: ok")
	}
	// Ctrl-C aborts the analysis between tree-build blocks and pair
	// comparisons instead of leaving a long run unkillable-in-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	analysisOpts := []sword.Option{
		sword.WithWorkers(*workers),
		sword.WithSubtreeBatch(*batch),
		sword.WithMemoryBudget(*memBudget),
		sword.WithNoSolver(*noSolver),
		sword.WithNoCompact(*noCompact),
		sword.WithAllRaces(*allRaces),
		sword.WithNoPrefilter(*noPrefilter),
	}
	var rep *sword.Report
	var stats *sword.RunStats
	var err error
	if *follow {
		if !*quiet {
			analysisOpts = append(analysisOpts, sword.WithOnRace(func(r sword.Race) {
				fmt.Printf("[live] %s\n", r)
			}))
		}
		rep, stats, err = sword.AnalyzeLive(ctx, *logdir, analysisOpts...)
	} else {
		rep, stats, err = sword.AnalyzeContext(ctx, *logdir, analysisOpts...)
	}
	// Damage counts as a verdict only beside a report: an interrupted
	// live wait, or a trace too broken for any pass, has none.
	damaged := rep != nil && errors.Is(err, sword.ErrTraceDamaged)
	if err != nil && !damaged {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "swordoffline: interrupted")
			if rep != nil && !*quiet {
				// Online mode hands back the partial live report on cancel.
				fmt.Print(rep.String())
			}
		} else {
			fmt.Fprintln(os.Stderr, "swordoffline:", err)
		}
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if damaged {
		// The partial report follows; the damage is the loud part.
		fmt.Fprintln(os.Stderr, "swordoffline:", err)
	}
	if !*quiet {
		fmt.Print(rep.String())
	}
	st := rep.Stats
	fmt.Printf("analyzed %d regions, %d intervals, %d concurrent pairs, %d tree nodes (%d accesses) in %v\n",
		st.Regions, st.Intervals, st.IntervalPairs, st.TreeNodes, st.Accesses, elapsed)
	if *metrics {
		printMetrics(stats)
	}
	if *metricsOut != "" {
		if err := sword.WriteMetrics(*metricsOut, stats.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "swordoffline:", err)
			os.Exit(1)
		}
		fmt.Println("metrics written to", *metricsOut)
	}
	os.Exit(sword.ExitCode(rep, err))
}

// printMetrics renders the RunStats breakdown: where the offline time
// went, how much trace the analysis consumed, and how overlap decisions
// split between the solver and the bounding-box fast path.
func printMetrics(stats *sword.RunStats) {
	snap := stats.Metrics
	fmt.Println("--- offline phases ---")
	fmt.Printf("structure recovery:  %v\n", stats.Structure)
	fmt.Printf("tree construction:   %v\n", stats.TreeBuild)
	fmt.Printf("pair comparison:     %v\n", stats.Compare)
	fmt.Printf("total:               %v\n", stats.AnalyzeTotal)
	fmt.Println("--- trace consumed ---")
	fmt.Printf("events:              %d\n", snap.Value("trace.events"))
	fmt.Printf("blocks (flushes):    %d\n", snap.Value("trace.blocks"))
	fmt.Printf("raw bytes:           %d\n", snap.Value("trace.raw_bytes"))
	fmt.Printf("compressed bytes:    %d\n", snap.Value("trace.compressed_bytes"))
	fmt.Printf("blocks skipped:      %d (batched fast path)\n", snap.Value("trace.blocks_skipped"))
	fmt.Printf("skipped bytes:       %d\n", snap.Value("trace.skipped_bytes"))
	fmt.Println("--- analysis effort ---")
	fmt.Printf("interval pairs:      %d\n", snap.Value("core.interval_pairs"))
	fmt.Printf("pairs prefiltered:   %d\n", snap.Value("core.pairs_prefiltered"))
	fmt.Printf("pairs retired:       %d (static certificates)\n", snap.Value("core.pairs_retired_static"))
	fmt.Printf("node comparisons:    %d\n", snap.Value("core.node_comparisons"))
	fmt.Printf("solver calls:        %d\n", snap.Value("core.solver_calls"))
	fmt.Printf("solver cache hits:   %d\n", snap.Value("core.solver_cache_hits"))
	fmt.Printf("solver cache misses: %d\n", snap.Value("core.solver_cache_misses"))
	fmt.Printf("sites suppressed:    %d\n", snap.Value("core.sites_suppressed"))
	fmt.Printf("bbox fast-paths:     %d\n", snap.Value("core.bbox_fastpath"))
	fmt.Printf("peak resident nodes: %d (%d batches)\n",
		snap.Value("core.tree_nodes_peak"), snap.Value("core.batches"))
}
