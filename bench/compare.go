package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json. -compare needs each end-to-end metric's
// direction and bound (the share of the first run's median by which it may
// worsen); the smoke test holds the rest against what the benchmark emits.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with quartiles, the relative change and the bound. A metric whose reps
// spread (q3 − q1 over the median) wider than the bound in either file is
// "unresolved": the runs cannot tell a change of that size from noise.
// Returns the exit code: 1 on any regression, 2 on unusable input.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	var spec benchSpec
	var a, b resultFile
	if err := errors.Join(readJSON(specPath, &spec), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runsB := make(map[string]runResult)
	for _, r := range b.Runs {
		runsB[r.Workload] = r
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "status")
	for _, ra := range a.Runs {
		rb, ok := runsB[ra.Workload]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s has no run of %s\n", pathB, ra.Workload)
			return 2
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed verdicts: a %d of %d, b %d of %d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			regressed++
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB || sa.Value == 0 {
				fmt.Fprintf(os.Stderr, "bench: %s/%s missing or zero\n", ra.Workload, m.Name)
				return 2
			}
			change := (sb.Value - sa.Value) / sa.Value
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			status := "ok"
			switch {
			case spread(sa) > m.Bound || spread(sb) > m.Bound:
				status = "unresolved"
				unresolved++
			case worse > m.Bound:
				status = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-24s %12.6g %12.6g %+7.1f%% %5.1f%%  %s\n", ra.Workload, m.Name, sa.Value, sb.Value, 100*change, 100*m.Bound, status)
			fmt.Fprintf(w, "%-16s %-24s [%.6g, %.6g] n=%d   [%.6g, %.6g] n=%d\n", "", "  quartiles", sa.Q1, sa.Q3, sa.N, sb.Q1, sb.Q3, sb.N)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// spread is the interquartile range as a share of the median.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}
