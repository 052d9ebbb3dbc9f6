package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"sword"
	"sword/internal/memsim"
	"sword/internal/omp"
)

// bench is the state of one workload run.
type bench struct {
	cfg  config
	w    workload
	in   inputs
	want []string // pinned race set
	tmp  string   // this run's temp root; every trace dir lives beneath it

	attempted, failed int // verdict operations
}

// repSample is what one rep measured.
type repSample struct {
	base, collect, analyze time.Duration
	traceBytes             int64
	collected              *sword.RunStats
}

// runWorkload executes the load shape on one workload: set-up (several
// times, each ending in a discarded warm-up rep), timed reps for
// cfg.seconds, memory reps, and with cfg.trace the traced rep and the
// layer lanes.
func runWorkload(cfg config, w workload) (*runResult, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{cfg: cfg, w: w, tmp: tmp}

	setupReps, minReps, memReps := 5, 5, 5
	if cfg.tiny {
		setupReps, minReps, memReps = 1, 2, 1
	}
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		b.in = makeInputs(w, cfg)
		if b.want, err = loadExpected(w.name); err != nil {
			return nil, err
		}
		if _, ok := b.rep(nil); !ok {
			return nil, fmt.Errorf("%s: warm-up rep failed", w.name)
		}
		setups = append(setups, time.Since(start))
	}

	// Closed loop: the next rep starts when the previous verdict is in.
	var reps []repSample
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for tries := 0; len(reps) < minReps || time.Now().Before(deadline); tries++ {
		if tries >= 3*minReps && len(reps) == 0 {
			return nil, fmt.Errorf("%s: no rep reached a correct verdict", w.name)
		}
		if s, ok := b.rep(nil); ok {
			reps = append(reps, s)
		}
	}

	// Memory reps re-analyze one kept trace under the heap sampler, which
	// forces a collection every 2 ms and so must stay out of the timings.
	kept, err := b.newDir()
	if err != nil {
		return nil, err
	}
	if _, err := b.collect(sword.WithLogDir(kept)); err != nil {
		return nil, fmt.Errorf("%s: collect for memory reps: %w", w.name, err)
	}
	var peaks []float64
	for i := 0; i < memReps; i++ {
		var rep *sword.Report
		var aerr error
		_, peak := heapPeak(func() { rep, _, aerr = b.analyze(kept) })
		if b.verdict("memory-rep", rep, aerr) {
			peaks = append(peaks, float64(peak))
		}
	}
	if len(peaks) == 0 {
		return nil, fmt.Errorf("%s: no memory rep reached a correct verdict", w.name)
	}

	res := &runResult{Workload: w.name, Inputs: b.in.String(), Reps: len(reps), EndToEnd: map[string]stat{}}
	var base, collect, analyze, verdict []time.Duration
	for _, s := range reps {
		base = append(base, s.base)
		collect = append(collect, s.collect)
		analyze = append(analyze, s.analyze)
		verdict = append(verdict, s.collect+s.analyze)
		if s.traceBytes != reps[0].traceBytes {
			b.verdictErr("trace_bytes", fmt.Errorf("did not repeat: %d vs %d", s.traceBytes, reps[0].traceBytes))
		}
	}
	res.Samples = map[string][]float64{
		"omp.baseline_s": seconds(base), "collect_s": seconds(collect), "analyze_s": seconds(analyze),
		"setup_s": seconds(setups), "analyze_heap_peak_bytes": peaks,
	}
	e2e := func(name string, s stat) {
		s.Unit = unitOf(endToEndMetrics, name)
		res.EndToEnd[name] = s
	}
	e2e("setup_s", sampled(seconds(setups)))
	e2e("collect_s", sampled(seconds(collect)))
	e2e("analyze_s", sampled(seconds(analyze)))
	e2e("verdict_s", sampled(seconds(verdict)))
	e2e("trace_bytes", single(float64(reps[0].traceBytes)))
	// A peak is a maximum: the highest reading over the memory reps is
	// steadier than their median, because each rep's sampler sees the
	// short-lived top of the heap only by luck.
	peak := sampled(peaks)
	peak.Value = slices.Max(peaks)
	e2e("analyze_heap_peak_bytes", peak)

	if cfg.trace {
		res.PerLayer = map[string]stat{}
		l := &layers{bench: b, res: res, reps: reps, kept: kept, tr: newTracer(w.name)}
		if err := l.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeSpans(filepath.Join(cfg.outDir, w.name+".spans.json"), l.tr.finish()); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	return res, nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rep is one launch-to-verified-report cycle: uninstrumented baseline,
// collection into a fresh directory, default-options analysis, verdict
// check. Each phase starts from a collected heap; the forced collections
// sit outside the timings. ok is false when the verdict failed.
func (b *bench) rep(tr *tracer) (s repSample, ok bool) {
	dir, err := b.newDir()
	if err != nil {
		return s, b.verdict("rep", nil, err)
	}
	defer os.RemoveAll(dir)

	runtime.GC()
	s.base, err = tr.do("omp.baseline", b.baseline)
	if err != nil {
		return s, b.verdict("rep", nil, err)
	}
	runtime.GC()
	s.collect, err = tr.do("collect", func() (err error) {
		s.collected, err = b.collect(sword.WithLogDir(dir))
		return err
	})
	if err != nil {
		return s, b.verdict("rep", nil, err)
	}
	if s.traceBytes, err = dirBytes(dir); err != nil {
		return s, b.verdict("rep", nil, err)
	}
	runtime.GC()
	var rep *sword.Report
	s.analyze, err = tr.do("analyze", func() (err error) {
		rep, _, err = b.analyze(dir)
		return err
	})
	return s, b.verdict("rep", rep, err)
}

// baseline runs the program with no tool attached.
func (b *bench) baseline() error {
	return b.in.run(omp.New(), memsim.NewSpace(nil))
}

// collect runs the instrumented program in the workload's own flush
// mode; opts name the store and any substitution.
func (b *bench) collect(opts ...sword.Option) (*sword.RunStats, error) {
	return b.collectMode(b.w.live, opts...)
}

// collectMode times what a user of the collector waits for: session
// creation through CollectOnly (final flush and close included).
func (b *bench) collectMode(live bool, opts ...sword.Option) (*sword.RunStats, error) {
	s, err := sword.NewSession(append(opts, sword.WithLiveFlush(live))...)
	if err != nil {
		return nil, err
	}
	if err := b.in.run(s.Runtime(), s.Space()); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.CollectOnly(); err != nil {
		return nil, err
	}
	return s.RunStats(), nil
}

// analyze is the workload's default-options analysis of a trace dir, open
// to report: post-mortem, or AnalyzeLive catching up on the finished
// directory for the live workload.
func (b *bench) analyze(dir string, opts ...sword.Option) (*sword.Report, *sword.RunStats, error) {
	if b.w.live {
		return sword.AnalyzeLive(context.Background(), dir, opts...)
	}
	return sword.AnalyzeContext(context.Background(), dir, opts...)
}

// verdict counts one operation: failed if the call erred or the race set
// is not the pinned one.
func (b *bench) verdict(lane string, rep *sword.Report, err error) bool {
	if err == nil {
		err = checkVerdict(raceSet(rep), b.want)
	}
	return b.verdictErr(lane, err)
}

func (b *bench) verdictErr(lane string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "bench: %s/%s FAILED: %v\n", b.w.name, lane, err)
		return false
	}
	return true
}

func (b *bench) newDir() (string, error) {
	return os.MkdirTemp(b.tmp, "trace-")
}

// dirBytes is the trace's size on disk: logs, meta files and aux files.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// heapPeak runs f while a sampler forces a garbage collection every 2 ms
// and reads the live heap right after it. It returns the highest reading,
// and that reading's growth over one taken just before f starts.
func heapPeak(f func()) (growth, peak uint64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	first := ms.HeapAlloc
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		peak := first
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}()
	f()
	close(stop)
	peak = <-done
	return peak - first, peak
}
