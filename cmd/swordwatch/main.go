// Command swordwatch watches a trace directory that a collector is still
// writing and reports data races while the traced program runs — SWORD's
// live front-end. Point it at the -logdir of a collection started with
// live flushing (swordrun -live-flush, or sword.WithLiveFlush) and it
// prints each race the moment its barrier episode seals, then finishes
// with the same report and summary line swordoffline would print over the
// completed trace.
//
// Usage:
//
//	swordwatch -logdir /tmp/trace              # tail until the run ends
//	swordwatch -logdir /tmp/trace -metrics     # plus the stream.* gauges
//
// Races reported mid-run carry placeholder site names (pc(N)); the
// collector persists its symbol table only when it closes, and the final
// report is fully symbolized. Ctrl-C before the run ends prints the
// partial live report and exits 1 — the crashed-run path.
//
// A damaged trace falls back to a post-mortem analysis once the run ends:
// its partial report is printed and the damage goes to stderr.
//
// Exit codes mirror swordoffline: 0 = run finished, no races; 3 = races
// found; 4 = damaged trace, no races in what survived; 5 = damaged trace
// with races; 1 = interrupted or failed; 2 = usage.
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
	logdir := flag.String("logdir", "", "trace directory being written by a live-flush collection")
	workers := flag.Int("workers", 0, "analysis workers (<= 0 = GOMAXPROCS)")
	poll := flag.Duration("poll", 0, "tail poll interval when idle (0 = 2ms)")
	metrics := flag.Bool("metrics", false, "print the stream.* metrics after the run")
	quiet := flag.Bool("q", false, "suppress the live feed; print only the final report")
	flag.Parse()

	if *logdir == "" {
		fmt.Fprintln(os.Stderr, "swordwatch: -logdir is required")
		os.Exit(2)
	}
	if fi, err := os.Stat(*logdir); err != nil {
		fmt.Fprintln(os.Stderr, "swordwatch:", err)
		os.Exit(1)
	} else if !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "swordwatch: %s is not a directory\n", *logdir)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	opts := []sword.Option{
		sword.WithWorkers(*workers),
		sword.WithPollInterval(*poll),
	}
	if !*quiet {
		opts = append(opts, sword.WithOnRace(func(r sword.Race) {
			fmt.Printf("[%8s] %s\n", time.Since(start).Round(time.Millisecond), r)
		}))
	}
	rep, stats, err := sword.AnalyzeLive(ctx, *logdir, opts...)
	damaged := rep != nil && errors.Is(err, sword.ErrTraceDamaged)
	if err != nil && !damaged {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "swordwatch: interrupted before the run ended; partial report:")
			if rep != nil {
				fmt.Print(rep.String())
			}
		} else {
			fmt.Fprintln(os.Stderr, "swordwatch:", err)
		}
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if damaged {
		fmt.Fprintln(os.Stderr, "swordwatch:", err)
	}
	fmt.Print(rep.String())
	st := rep.Stats
	fmt.Printf("analyzed %d regions, %d intervals, %d concurrent pairs, %d tree nodes (%d accesses) in %v\n",
		st.Regions, st.Intervals, st.IntervalPairs, st.TreeNodes, st.Accesses, elapsed)
	if *metrics {
		snap := stats.Metrics
		fmt.Println("--- online analysis ---")
		fmt.Printf("rounds:              %d\n", snap.Value("stream.rounds"))
		fmt.Printf("analysis steps:      %d\n", snap.Value("stream.steps"))
		fmt.Printf("epochs sealed live:  %d\n", snap.Value("stream.epochs_sealed"))
		fmt.Printf("races found live:    %d\n", snap.Value("stream.races_live"))
		fmt.Printf("tail retries:        %d\n", snap.Value("stream.tail_retries"))
		fmt.Printf("committed bytes:     %d\n", snap.Value("stream.committed_bytes"))
		fmt.Printf("frontier peak:       %d bytes\n", snap.Value("stream.frontier_bytes_peak"))
	}
	os.Exit(sword.ExitCode(rep, err))
}
