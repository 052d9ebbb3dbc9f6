// Command swordrun executes one bundled workload under a chosen race
// detector and prints the race report and measurements.
//
// Usage:
//
//	swordrun -list                          # list workloads
//	swordrun -suite ompscr                  # detection matrix for a suite
//	swordrun -w amg -tool sword             # analyze with SWORD
//	swordrun -w amg -size 40 -tool archer   # the paper's OOM case
//	swordrun -w c_md -tool sword -logdir /tmp/trace   # keep the trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"sword"
	"sword/internal/harness"
	"sword/internal/trace"
	"sword/internal/workloads"
)

func main() {
	name := flag.String("w", "", "workload name (see -list)")
	suite := flag.String("suite", "", "run every workload of a suite (drb, ompscr, hpc) and print the detection matrix")
	toolName := flag.String("tool", "sword", "tool: baseline, archer, archer-low, sword")
	threads := flag.Int("threads", 0, "team size (default: GOMAXPROCS clamped to [4,8])")
	size := flag.Int("size", 0, "problem size (default: workload default)")
	budget := flag.Int64("budget", 0, "node memory budget in bytes (0 = default, <0 = unlimited)")
	logdir := flag.String("logdir", "", "directory for sword trace files (default: in-memory)")
	flushWorkers := flag.Int("flush-workers", 0, "sword flush pipeline workers (0 = min(GOMAXPROCS, 4))")
	batch := flag.Int("batch", 0, "sword offline analysis: N top-level subtrees per batch (0 = one pass)")
	staticFilter := flag.Bool("static-filter", false, "sword collection: drop accesses covered by static loop certificates (identical race set)")
	liveFlush := flag.Bool("live-flush", false, "sword collection: commit log data before each meta record so a live analyzer (swordwatch) can tail the trace")
	list := flag.Bool("list", false, "list workloads and exit")
	verbose := flag.Bool("v", false, "print per-race details")
	asJSON := flag.Bool("json", false, "emit the race report as JSON")
	metrics := flag.Bool("metrics", false, "print sword's observability metrics (per-phase timings and counters)")
	metricsOut := flag.String("metrics-out", "", "write sword's metrics snapshot to this file (.csv for CSV, else JSON)")
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "name\tsuite\tdocumented\tdescription")
		for _, wl := range workloads.All() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\n", wl.Name, wl.Suite, wl.Documented, wl.Description)
		}
		w.Flush()
		return
	}
	if *suite != "" {
		ws := workloads.BySuite(*suite)
		if len(ws) == 0 {
			fmt.Fprintf(os.Stderr, "swordrun: unknown suite %q\n", *suite)
			os.Exit(2)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "benchmark\tdocumented\tarcher\tarcher-low\tsword")
		for _, wl := range ws {
			row := make([]string, 0, 3)
			for _, tool := range []harness.Tool{harness.Archer, harness.ArcherLow, harness.Sword} {
				res, err := harness.Run(wl, tool, harness.Options{Threads: *threads, Size: *size, NodeBudget: *budget})
				if err != nil {
					fmt.Fprintln(os.Stderr, "swordrun:", err)
					os.Exit(1)
				}
				if res.OOM {
					row = append(row, "OOM")
				} else {
					row = append(row, fmt.Sprint(res.Races))
				}
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n", wl.Name, wl.Documented, row[0], row[1], row[2])
		}
		w.Flush()
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "swordrun: -w or -suite is required (see -list)")
		os.Exit(2)
	}
	wl, err := workloads.Get(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swordrun:", err)
		os.Exit(2)
	}
	var tool harness.Tool
	switch *toolName {
	case "baseline":
		tool = harness.Baseline
	case "archer":
		tool = harness.Archer
	case "archer-low":
		tool = harness.ArcherLow
	case "sword":
		tool = harness.Sword
	default:
		fmt.Fprintf(os.Stderr, "swordrun: unknown tool %q\n", *toolName)
		os.Exit(2)
	}
	opts := harness.Options{
		Threads: *threads, Size: *size, NodeBudget: *budget,
		FlushWorkers: *flushWorkers, SubtreeBatch: *batch,
		StaticFilter: *staticFilter, LiveFlush: *liveFlush,
	}
	if *logdir != "" {
		store, err := trace.NewDirStore(*logdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swordrun:", err)
			os.Exit(1)
		}
		opts.Store = store
	}
	var reg *sword.Metrics
	if *metrics || *metricsOut != "" {
		reg = sword.NewMetrics()
		opts.Obs = reg
	}
	res, err := harness.Run(wl, tool, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swordrun:", err)
		os.Exit(1)
	}
	if res.OOM {
		fmt.Printf("%s under %s: OUT OF MEMORY (footprint %d + overhead %d exceeds node budget)\n",
			wl.Name, tool, res.Footprint, res.MemOverhead)
		os.Exit(1)
	}
	if *asJSON && res.Report != nil {
		data, err := json.MarshalIndent(res.Report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "swordrun:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		if res.Races > 0 {
			os.Exit(3)
		}
		return
	}
	fmt.Printf("%s under %s: %d race(s), %d threads, size %d\n",
		wl.Name, tool, res.Races, res.Threads, res.Size)
	if *verbose && res.Report != nil {
		fmt.Print(res.Report.String())
	}
	fmt.Printf("dynamic time: %v\n", res.DynTime)
	if tool == harness.Sword {
		fmt.Printf("offline time: %v (1 worker), %v (parallel)\n", res.OfflineOA, res.OfflineMT)
		fmt.Printf("trace: %d events, %d flushes, %d fragments, %d log bytes\n",
			res.Collector.Events, res.Collector.Flushes, res.Collector.Fragments, res.LogBytes)
		if res.Collector.EventsFiltered > 0 {
			fmt.Printf("static filter: %d accesses dropped at collection, %d pair classes retired\n",
				res.Collector.EventsFiltered, res.Analysis.PairsRetiredStatic)
		}
	}
	if tool == harness.Archer || tool == harness.ArcherLow {
		fmt.Printf("shadow: %d words, %d evictions, %d checks\n",
			res.Shadow.ShadowWords, res.Shadow.Evictions, res.Shadow.Checks)
	}
	fmt.Printf("memory: footprint %d bytes, tool overhead %d bytes\n", res.Footprint, res.MemOverhead)
	if tool == harness.Sword && res.RunStats != nil {
		if *metrics {
			st := res.RunStats
			fmt.Printf("phases: structure %v, trees %v, compare %v (offline total %v)\n",
				st.Structure, st.TreeBuild, st.Compare, st.AnalyzeTotal)
			fmt.Printf("counters: %d interval pairs, %d node comparisons, %d solver calls, %d compressed bytes\n",
				st.Analysis.IntervalPairs, st.Analysis.NodeComparisons,
				st.Analysis.SolverCalls, st.Collect.CompressedBytes)
			if st.BlocksSkipped > 0 {
				fmt.Printf("batched streaming: %d blocks skipped (%d compressed bytes not decoded)\n",
					st.BlocksSkipped, st.SkippedBytes)
			}
		}
		if *metricsOut != "" {
			if err := sword.WriteMetrics(*metricsOut, res.RunStats.Metrics); err != nil {
				fmt.Fprintln(os.Stderr, "swordrun:", err)
				os.Exit(1)
			}
			fmt.Println("metrics written to", *metricsOut)
		}
	}
	if res.Races > 0 {
		os.Exit(3) // races found: nonzero exit, like real race checkers
	}
}
