// Package harness runs workloads under the evaluated tools — baseline (no
// analysis), archer, archer-low, and sword — measuring wall time, modeled
// memory overhead, and out-of-memory outcomes against a simulated node
// budget, and regenerates every table and figure of the paper's
// evaluation section.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sword"
	"sword/internal/archer"
	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// Tool selects the analysis configuration of a run.
type Tool int

// The four configurations of the paper's experiments.
const (
	Baseline Tool = iota
	Archer
	ArcherLow
	Sword
)

// Tools lists every configuration in table order.
var Tools = []Tool{Baseline, Archer, ArcherLow, Sword}

// String returns the paper's name for the configuration.
func (t Tool) String() string {
	switch t {
	case Baseline:
		return "baseline"
	case Archer:
		return "archer"
	case ArcherLow:
		return "archer-low"
	case Sword:
		return "sword"
	default:
		return fmt.Sprintf("tool(%d)", int(t))
	}
}

// DefaultNodeBudget simulates the evaluation node's memory: the paper's
// 32 GB nodes scaled down with the workload footprints (DESIGN.md).
const DefaultNodeBudget = 440 << 20

// Options configures a run.
type Options struct {
	Threads int // team size; 0 means GOMAXPROCS clamped to [4, 8]
	Size    int // workload size knob; 0 means the workload default
	// NodeBudget simulates node memory for OOM verdicts; 0 means
	// DefaultNodeBudget, negative means unlimited.
	NodeBudget int64
	// Store receives sword's trace; nil means an in-memory store.
	Store trace.Store
	// Codec compresses sword's logs; nil means lzss.
	Codec compress.Codec
	// MaxEvents bounds sword's per-thread buffer; 0 means the default.
	MaxEvents int
	// FlushWorkers bounds sword's asynchronous flush pipeline; 0 means
	// the collector default (min(GOMAXPROCS, 4)).
	FlushWorkers int
	// SubtreeBatch analyzes sword's offline phase in batches of N
	// top-level region subtrees (bounded resident memory, block-skipping
	// streaming); 0 means one pass.
	SubtreeBatch int
	// AllRaces disables sword's race-site suppression in the offline
	// phase (see sword.WithAllRaces): every node pair of a confirmed-racy
	// site is still solved so each race's Count reflects every instance.
	AllRaces bool
	// StaticFilter enables sword's collection-time static filtering of
	// certified worksharing loops (see sword.WithStaticFilter). Only
	// workloads using the affine capture API are affected; the race set
	// is identical either way.
	StaticFilter bool
	// NoPrefilter disables sword's summary-based pair pre-filter in the
	// offline phase (ablation; see sword.WithNoPrefilter).
	NoPrefilter bool
	// LiveFlush makes sword's collector commit each closed fragment's log
	// data before publishing its meta record, so a concurrent live
	// analyzer (sword.AnalyzeLive, cmd/swordwatch) can tail the store
	// while the workload runs (see sword.WithLiveFlush).
	LiveFlush bool
	// SkipOffline skips sword's offline phase (dynamic-only measurements,
	// as in Figures 6-8 which plot log collection).
	SkipOffline bool
	// OfflineWorkers for the "MT" (distributed) measurement; 0 means
	// GOMAXPROCS.
	OfflineWorkers int
	// Obs, when non-nil, receives both sword phases' metrics; sharing one
	// registry across runs aggregates them. nil uses a per-run registry
	// (RunStats is populated either way).
	Obs *obs.Metrics
}

// Result is one run's measurements.
type Result struct {
	Workload string
	Tool     Tool
	Threads  int
	Size     int

	Races  int
	Report *report.Report
	OOM    bool

	DynTime   time.Duration // execution incl. online analysis / collection
	OfflineOA time.Duration // sword offline, single worker (paper's OA)
	OfflineMT time.Duration // sword offline, parallel workers (paper's MT)

	Footprint   uint64 // accounted application bytes
	MemOverhead uint64 // modeled tool overhead bytes
	LogBytes    uint64 // sword compressed trace volume

	Collector rt.Stats     // sword only
	Shadow    archer.Stats // archer only
	Analysis  report.Stats // sword only

	// RunStats is the public-API observability summary of a sword run:
	// per-phase offline wall times plus the full metrics snapshot (the MT
	// analysis when the offline phase ran). nil for other tools.
	RunStats *sword.RunStats
}

// TotalTime returns dynamic plus distributed offline time — the end-to-end
// cost of a sword run, or just the dynamic time for online tools.
func (r Result) TotalTime() time.Duration { return r.DynTime + r.OfflineMT }

// Run executes workload w under the tool and returns measurements. An OOM
// verdict (tool overhead plus footprint exceeding the node budget) returns
// without executing, like the paper's AMG2013_40 runs that died during
// analysis.
func Run(w workloads.Workload, tool Tool, opts Options) (Result, error) {
	threads := opts.Threads
	if threads <= 0 {
		// At least 4 so races between threads can manifest even on small
		// machines (goroutines interleave regardless of core count).
		threads = min(max(runtime.GOMAXPROCS(0), 4), 8)
	}
	size := opts.Size
	if size <= 0 {
		size = w.DefaultSize
	}
	res := Result{Workload: w.Name, Tool: tool, Threads: threads, Size: size}
	res.Footprint = w.Footprint(size)

	switch tool {
	case Baseline:
		res.MemOverhead = 0
	case Archer:
		res.MemOverhead = archer.MemoryModel(res.Footprint, false)
	case ArcherLow:
		res.MemOverhead = archer.MemoryModel(res.Footprint, true)
	case Sword:
		res.MemOverhead = rt.MemoryModel(threads)
	}
	budget := opts.NodeBudget
	if budget == 0 {
		budget = DefaultNodeBudget
	}
	if budget > 0 && res.Footprint+res.MemOverhead > uint64(budget) {
		res.OOM = true
		return res, nil
	}

	ctx := &workloads.Ctx{
		RT:      nil,
		Space:   memsim.NewSpace(nil),
		Threads: threads,
		Size:    size,
	}

	var ompOpts []omp.Option
	var archerTool *archer.Tool
	var sess *sword.Session
	var store trace.Store

	switch tool {
	case Archer, ArcherLow:
		archerTool = archer.New(archer.Config{FlushShadow: tool == ArcherLow})
		ompOpts = append(ompOpts, omp.WithTool(archerTool))
	case Sword:
		store = opts.Store
		if store == nil {
			store = trace.NewMemStore()
		}
		// The sword leg goes through the public API — session for
		// collection, AnalyzeStore for the offline phase — so the harness
		// measures exactly what library users get, real instrumentation
		// included.
		codecName := "lzss"
		if opts.Codec != nil {
			codecName = opts.Codec.Name()
		}
		m := opts.Obs
		if m == nil {
			m = obs.New()
		}
		var err error
		sess, err = sword.NewSession(
			sword.WithStore(store),
			sword.WithCodec(codecName),
			sword.WithMaxEvents(opts.MaxEvents),
			sword.WithFlushWorkers(opts.FlushWorkers),
			sword.WithStaticFilter(opts.StaticFilter),
			sword.WithLiveFlush(opts.LiveFlush),
			sword.WithObs(m),
		)
		if err != nil {
			return res, fmt.Errorf("harness: %w", err)
		}
		ctx.RT = sess.Runtime()
	}
	if ctx.RT == nil {
		ctx.RT = omp.New(ompOpts...)
	}

	start := time.Now()
	w.Run(ctx)
	if sess != nil {
		if err := sess.CollectOnly(); err != nil {
			return res, fmt.Errorf("harness: close session: %w", err)
		}
	}
	res.DynTime = time.Since(start)

	switch tool {
	case Archer, ArcherLow:
		res.Report = archerTool.Report()
		res.Races = res.Report.Len()
		res.Shadow = archerTool.Stats()
	case Sword:
		res.RunStats = sess.RunStats()
		res.Collector = res.RunStats.Collect
		res.LogBytes = store.BytesWritten()
		if !opts.SkipOffline {
			oaStart := time.Now()
			oaRep, _, err := sword.AnalyzeStore(store, sword.WithWorkers(1),
				sword.WithSubtreeBatch(opts.SubtreeBatch),
				sword.WithNoPrefilter(opts.NoPrefilter),
				sword.WithAllRaces(opts.AllRaces))
			if err != nil {
				return res, fmt.Errorf("harness: offline (OA): %w", err)
			}
			res.OfflineOA = time.Since(oaStart)
			mtWorkers := opts.OfflineWorkers
			if mtWorkers <= 0 {
				mtWorkers = runtime.GOMAXPROCS(0)
			}
			mtStart := time.Now()
			mtRep, mtStats, err := sword.AnalyzeStore(store,
				sword.WithWorkers(mtWorkers),
				sword.WithSubtreeBatch(opts.SubtreeBatch),
				sword.WithNoPrefilter(opts.NoPrefilter),
				sword.WithAllRaces(opts.AllRaces),
				sword.WithObs(sess.Metrics()))
			if err != nil {
				return res, fmt.Errorf("harness: offline (MT): %w", err)
			}
			res.OfflineMT = time.Since(mtStart)
			if oaRep.Len() != mtRep.Len() {
				return res, fmt.Errorf("harness: offline worker counts disagree: %d vs %d races", oaRep.Len(), mtRep.Len())
			}
			res.Report = mtRep
			res.Races = mtRep.Len()
			res.Analysis = mtRep.Stats
			mtStats.Collect = res.Collector
			res.RunStats = mtStats
		}
	}
	return res, nil
}

// RunAveraged repeats a run and averages the timing fields (races and
// memory are identical across repetitions; the paper averaged across 10
// executions).
func RunAveraged(w workloads.Workload, tool Tool, opts Options, repeats int) (Result, error) {
	if repeats <= 0 {
		repeats = 1
	}
	var acc Result
	for i := 0; i < repeats; i++ {
		r, err := Run(w, tool, opts)
		if err != nil {
			return r, err
		}
		if i == 0 {
			acc = r
			if r.OOM {
				return acc, nil
			}
			continue
		}
		acc.DynTime += r.DynTime
		acc.OfflineOA += r.OfflineOA
		acc.OfflineMT += r.OfflineMT
	}
	acc.DynTime /= time.Duration(repeats)
	acc.OfflineOA /= time.Duration(repeats)
	acc.OfflineMT /= time.Duration(repeats)
	return acc, nil
}

// Geomean returns the geometric mean of strictly positive values;
// non-positive inputs are skipped.
func Geomean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Slowdown returns the ratio of a tool run to its baseline run.
func Slowdown(tool, baseline Result) float64 {
	if baseline.DynTime <= 0 {
		return 0
	}
	return float64(tool.DynTime) / float64(baseline.DynTime)
}

// MemRatio returns modeled total memory relative to the application
// footprint (1.0 = no overhead).
func MemRatio(r Result) float64 {
	if r.Footprint == 0 {
		return 0
	}
	return float64(r.Footprint+r.MemOverhead) / float64(r.Footprint)
}
