package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny size through the full rep and
// traced path, and holds the emitted metrics against BENCHMARK.json in
// both directions.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadTable) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadTable))
	}
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
		}
	}
	out := t.TempDir()
	cfg := config{seed: 7, seconds: 0.05, trace: true, tiny: true, outDir: out, threads: teamSize()}
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("verdicts: %d failed of %d", res.Failed, res.Attempted)
			}

			declared := map[string]string{}
			for _, m := range spec.EndToEnd {
				declared[m.Name] = m.Unit
				if m.Bound <= 0 || m.Bound > 0.25 {
					t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
				}
			}
			checkSchema(t, "end_to_end", declared, res.EndToEnd)
			for name, s := range res.EndToEnd {
				if s.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, s.Value)
				}
			}
			declared = map[string]string{}
			for _, m := range spec.PerLayer {
				declared[m.Name] = m.Unit
			}
			checkSchema(t, "per_layer", declared, res.PerLayer)

			checkSpans(t, filepath.Join(out, w.name+".spans.json"), w.name)
		})
	}
	// Every temp trace dir is gone once the runs return.
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("left behind %s", e.Name())
		}
	}
}

func checkSchema(t *testing.T, section string, declared map[string]string, emitted map[string]stat) {
	t.Helper()
	for name, unit := range declared {
		s, ok := emitted[name]
		switch {
		case !ok:
			t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", section, name)
		case s.Unit != unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", section, name, s.Unit, unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("%s: %s = %v", section, name, s.Value)
		}
	}
	for name := range emitted {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", section, name)
		}
	}
}

func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	var spans []span
	if err := readJSON(path, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if s.ID != i+1 || s.Workload != workload {
			t.Fatalf("span %d: id %d, workload %q", i, s.ID, s.Workload)
		}
		if s.EndNs < s.StartNs || s.SelfNs < 0 {
			t.Errorf("span %d %s: start %d end %d self %d", s.ID, s.Name, s.StartNs, s.EndNs, s.SelfNs)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Parent >= s.ID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d %s does not nest inside parent %d %s", s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
	for _, want := range []string{"rep", "omp.baseline", "collect", "analyze", "analyze.oa", "rt.lane.null_raw",
		"replay", "trace.meta_read", "trace.log_read", "trace.event_decode", "itree.build", "core.plan",
		"core.batch", "stream.catchup", "dist.local", "server.job", "report.render"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
}

func TestInputsFromSeed(t *testing.T) {
	w, _ := findWorkload("lulesh-regions")
	a := makeInputs(w, config{seed: 3, threads: 2})
	b := makeInputs(w, config{seed: 3, threads: 2})
	c := makeInputs(w, config{seed: 4, threads: 2})
	if a.String() != b.String() {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a.String() == c.String() {
		t.Errorf("seeds 3 and 4 gave the same inputs: %s", a)
	}
	if a.sizes[0] != 1000 {
		t.Errorf("lulesh region count moved with the seed: %d", a.sizes[0])
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

// syntheticResults is a results file with every workload and end-to-end
// metric at value 1, quartiles ±1 %.
func syntheticResults() resultFile {
	f := resultFile{Seed: 1, Seconds: 10}
	for _, w := range workloadTable {
		r := runResult{Workload: w.name, Attempted: 10, EndToEnd: map[string]stat{}}
		for _, m := range endToEndMetrics {
			r.EndToEnd[m.name] = stat{Value: 1, Unit: m.unit, Q1: 0.99, Q3: 1.01, N: 9}
		}
		f.Runs = append(f.Runs, r)
	}
	return f
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edit := func(f resultFile, workload, metric string, s stat) resultFile {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var c resultFile
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Runs {
			if r.Workload == workload {
				r.EndToEnd[metric] = s
			}
		}
		return c
	}
	base := write("base.json", syntheticResults())
	slow := write("slow.json", edit(syntheticResults(), "fft-compare", "analyze_s", stat{Value: 1.3, Unit: "s", Q1: 1.29, Q3: 1.31, N: 9}))
	wide := write("wide.json", edit(syntheticResults(), "fft-compare", "analyze_s", stat{Value: 1.3, Unit: "s", Q1: 0.9, Q3: 1.7, N: 9}))

	var out bytes.Buffer
	if code := compareFiles(&out, specPath, base, base); code != 0 || strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, specPath, base, slow); code != 1 {
		t.Errorf("analyze_s +30%%: exit %d\n%s", code, out.String())
	}
	flagged := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "REGRESSED") {
			flagged++
			if !strings.Contains(line, "fft-compare") || !strings.Contains(line, "analyze_s") {
				t.Errorf("wrong row flagged: %s", line)
			}
		}
	}
	if flagged != 1 {
		t.Errorf("flagged %d rows, want 1\n%s", flagged, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, specPath, base, wide); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("wide quartiles: exit %d\n%s", code, out.String())
	}
}
