package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef declares one metric name with its unit. The two tables below
// are the benchmark's schema; BENCHMARK.json repeats them with bounds and
// the smoke test fails on drift in either direction.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"collect_s", "s"},
	{"analyze_s", "s"},
	{"verdict_s", "s"},
	{"trace_bytes", "bytes"},
	{"analyze_heap_peak_bytes", "bytes"},
}

var perLayerMetrics = []metricDef{
	{"omp.baseline_s", "s"}, {"omp.fork_join_us", "us"}, {"omp.barrier_us", "us"},

	{"rt.slowdown_x", "x"}, {"rt.ns_per_event", "ns"}, {"rt.events", "count"},
	{"rt.fragments", "count"}, {"rt.flushes", "count"}, {"rt.raw_bytes", "bytes"},
	{"rt.compressed_bytes", "bytes"}, {"rt.flush_errors", "count"}, {"rt.heap_peak_bytes", "bytes"},
	{"rt.instrument_s", "s"}, {"rt.codec_delta_s", "s"}, {"rt.io_delta_s", "s"}, {"rt.liveflush_delta_s", "s"},
	{"rt.access_hot_ns", "ns"}, {"rt.access_team_ns", "ns"}, {"rt.access_certified_ns", "ns"},
	{"obs.access_overhead_ns", "ns"},

	{"compress.encode_s", "s"}, {"compress.encode_mb_per_s", "MB/s"},
	{"compress.decode_s", "s"}, {"compress.decode_mb_per_s", "MB/s"}, {"compress.ratio", "x"},

	{"trace.meta_read_s", "s"}, {"trace.meta_records", "count"}, {"trace.log_read_s", "s"},
	{"trace.log_read_self_s", "s"}, {"trace.blocks", "count"}, {"trace.event_decode_s", "s"},
	{"trace.events_decoded", "count"}, {"trace.decode_ns_per_event", "ns"}, {"trace.blocks_skipped", "count"},

	{"itree.build_s", "s"}, {"itree.runs", "count"}, {"itree.insert_ns_per_access", "ns"}, {"itree.compaction_ratio", "x"},
	{"osl.sequential_ns", "ns"}, {"ilp.intersect_ns", "ns"},

	{"core.oa_s", "s"}, {"core.structure_s", "s"}, {"core.trees_s", "s"}, {"core.compare_s", "s"},
	{"core.unattributed_s", "s"}, {"core.unattributed_frac", "frac"}, {"core.trees_gap_s", "s"},
	{"core.plan_s", "s"}, {"core.units", "count"}, {"core.mt_speedup_x", "x"},
	{"core.intervals", "count"}, {"core.interval_pairs", "count"}, {"core.pairs_prefiltered", "count"},
	{"core.pairs_retired_static", "count"}, {"core.tree_nodes", "count"}, {"core.node_comparisons", "count"},
	{"core.solver_calls", "count"}, {"core.solver_cache_hits", "count"}, {"core.sites_suppressed", "count"},
	{"core.bbox_fastpath", "count"}, {"core.solver_hit_frac", "frac"}, {"core.compare_ns_per_node_cmp", "ns"},
	{"core.batch_s", "s"}, {"core.batch_heap_peak_bytes", "bytes"},

	{"stream.catchup_s", "s"}, {"stream.epochs_sealed", "count"}, {"stream.tail_retries", "count"},
	{"stream.lag_s", "s"}, {"stream.first_seal_s", "s"}, {"stream.frontier_peak_bytes", "bytes"},

	{"dist.local_s", "s"}, {"dist.vs_single_x", "x"},
	{"server.job_s", "s"}, {"server.upload_mb_per_s", "MB/s"},
	{"report.render_s", "s"}, {"report.races", "count"},
	{"bench.trace_overhead_frac", "frac"},
}

// stat is one reported metric. Timings carry the quartiles and sample
// count of their reps; counts and single-lane values have N = 1.
type stat struct {
	Value float64 `json:"value"` // the median for timings
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// runResult is one workload's run; resultFile is an -all set of them.
type runResult struct {
	Workload  string          `json:"workload"`
	Inputs    string          `json:"inputs"`
	Reps      int             `json:"reps"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	// Samples holds every timed rep's raw readings, in seconds, in rep
	// order: what the medians above were taken from.
	Samples map[string][]float64 `json:"samples"`
}

type resultFile struct {
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Threads   int         `json:"threads"`
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"num_cpu"`
	Runs      []runResult `json:"runs"`
}

// driverLine is the single-workload run's last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not declared in result.go")
}

// quartiles returns the quartile cut points as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's definition),
// and the plain median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sampled and single build a stat without its unit; the unit is filled in
// from the metric tables where the stat is stored.
func sampled(xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

func single(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

func printTable(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n%s  (%s; %d timed reps; verdicts %d attempted, %d failed)\n", res.Workload, res.Inputs, res.Reps, res.Attempted, res.Failed)
	row := func(name string, s stat) {
		if s.N > 1 {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s  q1 %.6g  q3 %.6g  n %d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, s.Value, s.Unit)
		}
	}
	for _, d := range endToEndMetrics {
		row(d.name, res.EndToEnd[d.name])
	}
	for _, d := range perLayerMetrics {
		if s, ok := res.PerLayer[d.name]; ok {
			row(d.name, s)
		}
	}
}
