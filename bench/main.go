// Command bench is the repository's pipeline benchmark: it drives the
// public sword API (NewSession → CollectOnly → AnalyzeContext /
// AnalyzeLive) end to end on four workloads, checks every verdict against
// a hand-pinned answer, and — with -trace 1 — times each internal layer
// from outside. See README.md in this directory for the metric tables.
//
//	bash bench/run.sh --workload amg-grid --seed 1 --seconds 10 --trace 0
//	go run ./bench -all -trace 1 -o bench/out/results.json
//	go run ./bench -compare a.json b.json
//
// It runs from the repository root. The last line of standard output of a
// single-workload run is one JSON object {"correct","attempted","failed",
// "metrics"}; everything else goes to standard error or to files under
// bench/out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// config is one invocation's settings, shared by every workload it runs.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test sizes (go test ./bench)
	outDir  string // outDir, or the smoke test's temp dir
	threads int
}

// outDir holds result files and spans; temp trace dirs live beneath it.
// Relative to the repository root, where the benchmark runs.
var outDir = filepath.Join("bench", "out")

// teamSize is the load shape's T = clamp(nproc, 2, 4).
func teamSize() int { return min(max(runtime.NumCPU(), 2), 4) }

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed window per workload")
		trace   = flag.Int("trace", 0, "1 = add the traced rep and layer lanes and print per-layer metrics")
		all     = flag.Bool("all", false, "run every workload and write one results file (-o)")
		outFile = flag.String("o", filepath.Join(outDir, "results.json"), "results file for -all")
		compare = flag.Bool("compare", false, "compare two -all results files: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg := config{seed: uint64(*seed), seconds: *seconds, trace: *trace == 1, outDir: outDir, threads: teamSize()}

	var err error
	if *all {
		err = runAll(cfg, *outFile)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", *name)
			for _, w := range workloadTable {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
			}
			return 2
		}
		err = runSingle(cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSingle is the driver's invocation: one workload, its result file and
// metric table, and the driver line as the last line of standard output.
func runSingle(cfg config, w workload) error {
	res, err := runWorkload(cfg, w)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.outDir, w.name+".json"), res); err != nil {
		return err
	}
	printTable(os.Stderr, res)
	// End-to-end metrics untraced, per-layer metrics traced.
	metrics := res.EndToEnd
	if cfg.trace {
		metrics = res.PerLayer
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for name, s := range metrics {
		line.Metrics[name] = driverMetric{Value: s.Value, Unit: s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runAll runs every workload with the same settings, each in a process
// of its own exactly as a single-workload invocation would (the
// collector's site table is per process, so a shared process would change
// trace_bytes), and gathers their result files into one — the artifact
// -compare reads and baseline.json holds.
func runAll(cfg config, path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Seed: cfg.seed, Seconds: cfg.seconds, Threads: cfg.threads, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	traceFlag := "0"
	if cfg.trace {
		traceFlag = "1"
	}
	failed := 0
	for _, w := range workloadTable {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", traceFlag)
		cmd.Stderr = os.Stderr // the metric table; the driver line on stdout is dropped
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res runResult
		if err := readJSON(filepath.Join(cfg.outDir, w.name+".json"), &res); err != nil {
			return err
		}
		failed += res.Failed
		file.Runs = append(file.Runs, res)
	}
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d verdicts failed", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
