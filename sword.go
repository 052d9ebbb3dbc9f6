// Package sword is a Go reproduction of SWORD (Atzeni et al., IPDPS
// 2018): a data race detector for OpenMP-style fork-join programs with a
// bounded, user-adjustable memory overhead.
//
// SWORD splits detection into two phases. During execution, every thread
// appends its instrumented memory accesses and synchronization events to a
// fixed-size buffer that is compressed and flushed to per-thread log
// files; memory overhead is N×(B+C) ≈ 3.3 MB per thread, independent of
// the application. Afterwards, an offline analyzer recovers the
// concurrency structure from the meta-data (barrier intervals,
// offset-span labels), builds augmented red-black interval trees over
// each thread's accesses, and reports conflicting concurrent accesses —
// deciding precise overlap of strided intervals with an exact
// integer-constraint solver.
//
// A minimal use:
//
//	rep, err := sword.Check(func(rt *sword.Runtime, space *sword.Space) {
//		a, _ := space.AllocF64(1000)
//		pcR, pcW := sword.Site("loop:read"), sword.Site("loop:write")
//		rt.Parallel(8, func(th *sword.Thread) {
//			th.For(1, 1000, func(i int) {
//				th.StoreF64(a, i, th.LoadF64(a, i-1, pcR), pcW)
//			})
//		})
//	})
//	fmt.Print(rep)   // the loop-carried dependence race
//
// For production-style runs that collect now and analyze later (or
// elsewhere), use a Session with a directory store; cmd/swordoffline can
// then analyze the directory independently.
package sword

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/stream"
	"sword/internal/trace"
)

// Re-exported types: the runtime substrate programs are written against,
// the simulated memory arrays they allocate, and the race report the
// analysis produces.
type (
	// Runtime executes OpenMP-style programs (see internal/omp).
	Runtime = omp.Runtime
	// Thread is a team member's execution context.
	Thread = omp.Thread
	// Lock is an OpenMP-style lock.
	Lock = omp.Lock
	// ForOpts selects worksharing schedules and the nowait clause.
	ForOpts = omp.ForOpts
	// Schedule enumerates worksharing schedules.
	Schedule = omp.Schedule
	// AffineLoop declares a worksharing loop's affine access shapes for
	// static certification (run it with Thread.ForAffine; filtering
	// activates under WithStaticFilter).
	AffineLoop = omp.AffineLoop
	// AffineIter is the per-iteration accessor handle of ForAffine.
	AffineIter = omp.AffineIter
	// AffineRef names one declared access shape of an AffineLoop.
	AffineRef = omp.AffineRef
	// Space allocates instrumented arrays with simulated addresses.
	Space = memsim.Space
	// F64 is an instrumented float64 array.
	F64 = memsim.F64
	// I64 is an instrumented int64 array.
	I64 = memsim.I64
	// I32 is an instrumented int32 array.
	I32 = memsim.I32
	// Bytes is an instrumented byte array.
	Bytes = memsim.Bytes
	// Report is a deduplicated race report.
	Report = report.Report
	// Race is one reported data race.
	Race = report.Race
	// Store persists trace logs and meta-data.
	Store = trace.Store
	// SalvageReport says what a damaged trace lost and why. It is the
	// error value behind ErrTraceDamaged: recover it with errors.As.
	SalvageReport = trace.SalvageReport
)

// Worksharing schedules, re-exported.
const (
	ScheduleStatic       = omp.ScheduleStatic
	ScheduleStaticCyclic = omp.ScheduleStaticCyclic
	ScheduleDynamic      = omp.ScheduleDynamic
	ScheduleGuided       = omp.ScheduleGuided
)

// NewAffineLoop returns an empty affine loop declaration for static
// certification (see AffineLoop).
func NewAffineLoop() *AffineLoop { return omp.NewAffineLoop() }

// Here interns the caller's source location as an access-site id.
func Here() uint64 { return omp.Here() }

// Site interns a symbolic access-site name.
func Site(name string) uint64 { return omp.Site(name) }

// ErrFinished is returned by Finish and CollectOnly when the session has
// already been finished.
var ErrFinished = errors.New("sword: session already finished")

// ErrTraceDamaged is matched (errors.Is) by the error an analysis returns
// when the trace was damaged — a crashed run, a filled disk, bit rot.
// Every analysis salvages: the report returned beside the error holds the
// races found in what survived, its stats say how much coverage was lost,
// and its notes say what was lost and why. errors.As recovers the
// *SalvageReport behind the error.
var ErrTraceDamaged = trace.ErrTraceDamaged

// ExitCode is the command-line verdict on an analysis outcome: 0 = clean
// trace, no races; 3 = races found; 4 = damaged trace, no races in what
// survived; 5 = damaged trace with races; 1 = any other failure (damage
// without a report, as when a live wait is interrupted, included).
func ExitCode(rep *Report, err error) int {
	damaged := rep != nil && errors.Is(err, ErrTraceDamaged)
	switch {
	case err != nil && !damaged:
		return 1
	case damaged && rep.Len() > 0:
		return 5
	case damaged:
		return 4
	case rep.Len() > 0:
		return 3
	}
	return 0
}

// Session couples a runtime with SWORD's dynamic collector and drives the
// offline analysis. Create with NewSession, run the program on Runtime(),
// then call Finish.
type Session struct {
	cfg       Config
	store     trace.Store
	collector *rt.Collector
	runtime   *omp.Runtime
	space     *memsim.Space
	metrics   *obs.Metrics
	finished  bool
	closed    bool
	closeErr  error
}

// NewSession prepares a collection session. With no options it collects
// into memory with the paper's defaults; see Config and the With*
// options for the knobs.
func NewSession(opts ...Option) (*Session, error) {
	cfg := applyOptions(opts)
	store := cfg.Store
	if store == nil {
		if cfg.LogDir != "" {
			ds, err := trace.NewDirStore(cfg.LogDir)
			if err != nil {
				return nil, fmt.Errorf("sword: %w", err)
			}
			store = ds
		} else {
			store = trace.NewMemStore()
		}
	}
	codecName := cfg.Codec
	if codecName == "" {
		codecName = "lzss"
	}
	codec, err := compress.ByName(codecName)
	if err != nil {
		return nil, fmt.Errorf("sword: %w", err)
	}
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	collector := rt.New(store, rt.Config{
		Codec:        compress.Instrument(codec, m),
		MaxEvents:    cfg.MaxEvents,
		FlushWorkers: cfg.FlushWorkers,
		StaticFilter: cfg.StaticFilter,
		LiveFlush:    cfg.LiveFlush,
		Obs:          m,
	})
	return &Session{
		cfg:       cfg,
		store:     store,
		collector: collector,
		runtime:   omp.New(omp.WithTool(collector)),
		space:     memsim.NewSpace(nil),
		metrics:   m,
	}, nil
}

// Runtime returns the instrumented runtime to run the program on.
func (s *Session) Runtime() *Runtime { return s.runtime }

// Space returns the session's address space for instrumented arrays.
func (s *Session) Space() *Space { return s.space }

// Store exposes the underlying trace store (for inspection or custom
// offline pipelines).
func (s *Session) Store() Store { return s.store }

// Metrics returns the session's observability registry — the one passed
// via WithObs, or the private registry created in its absence.
func (s *Session) Metrics() *Metrics { return s.metrics }

// Close flushes and closes the collector and, when the store implements
// io.Closer (DirStore does), closes the store — deterministically
// releasing every file handle even after an error mid-run. Idempotent:
// repeated calls return the first close error. Finish and CollectOnly
// call it; reaching for Close directly is only needed on error paths
// where neither ran.
func (s *Session) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	err := s.collector.Close()
	if c, ok := s.store.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.closeErr = err
	return err
}

// RunStats summarizes the session's observability state so far: dynamic
// counters plus any offline timings recorded into its registry. Finish
// returns the same summary with Analysis populated.
func (s *Session) RunStats() *RunStats {
	st := newRunStats(s.metrics.Snapshot())
	st.Collect = s.collector.Stats()
	return st
}

// Finish flushes and closes the trace, runs the offline analysis, and
// returns the race report and the run's observability summary. It may be
// called once; later calls return ErrFinished (the underlying resources
// are closed exactly once regardless).
func (s *Session) Finish() (*Report, *RunStats, error) {
	if s.finished {
		return nil, nil, ErrFinished
	}
	s.finished = true
	if err := s.Close(); err != nil {
		return nil, nil, fmt.Errorf("sword: close session: %w", err)
	}
	rep, err := core.New(s.store, s.cfg.core(s.metrics)).Analyze()
	rep, st, err := result("offline analysis", rep, s.metrics, err)
	if st != nil {
		st.Collect = s.collector.Stats()
	}
	return rep, st, err
}

// core maps the public configuration onto the offline analyzer's.
func (c Config) core(m *obs.Metrics) core.Config {
	return core.Config{
		Workers:      c.Workers,
		NoSolver:     c.NoSolver,
		NoCompact:    c.NoCompact,
		SubtreeBatch: c.SubtreeBatch,
		MemoryBudget: c.MemoryBudget,
		NoPrefilter:  c.NoPrefilter,
		AllRaces:     c.AllRaces,
		Obs:          m,
	}
}

// result packages an analysis outcome for the public API: the report with
// its run summary, and the error. A damaged trace yields both — the
// partial report and an error matching ErrTraceDamaged.
func result(what string, rep *Report, m *obs.Metrics, err error) (*Report, *RunStats, error) {
	if err != nil {
		err = fmt.Errorf("sword: %s: %w", what, err)
	}
	if rep == nil {
		return nil, nil, err
	}
	st := newRunStats(m.Snapshot())
	st.Analysis = rep.Stats
	return rep, st, err
}

// CollectOnly flushes and closes the trace without analyzing — the
// production-run half of the pipeline; analyze later with Analyze or
// cmd/swordoffline. Like Finish it may be called once.
func (s *Session) CollectOnly() error {
	if s.finished {
		return ErrFinished
	}
	s.finished = true
	if err := s.Close(); err != nil {
		return fmt.Errorf("sword: close session: %w", err)
	}
	return nil
}

// Analyze runs the offline phase over a previously collected log
// directory, returning the report and the run's observability summary.
//
// Analyze is shorthand for AnalyzeContext with context.Background().
// AnalyzeContext is the canonical form — prefer it in new code; the
// context-less names are kept for compatibility and will eventually be
// marked deprecated once the ecosystem has moved.
func Analyze(logDir string, opts ...Option) (*Report, *RunStats, error) {
	return AnalyzeContext(context.Background(), logDir, opts...)
}

// AnalyzeContext runs the offline phase over a previously collected log
// directory, returning the report and the run's observability summary. A
// cancelled or expired ctx aborts the analysis mid-flight (between
// tree-build blocks and pair comparisons) and returns ctx.Err(); wire it
// to signal.NotifyContext to make long analyses respond to Ctrl-C. A
// damaged trace returns the partial report and summary together with an
// error matching ErrTraceDamaged.
//
// This is the canonical entry point; Analyze is the background-context
// shorthand.
func AnalyzeContext(ctx context.Context, logDir string, opts ...Option) (*Report, *RunStats, error) {
	store, err := trace.NewDirStore(logDir)
	if err != nil {
		return nil, nil, fmt.Errorf("sword: %w", err)
	}
	return AnalyzeStoreContext(ctx, store, opts...)
}

// AnalyzeStore runs the offline phase over an already-open trace store —
// the in-process variant of Analyze for custom pipelines and the
// experiment harness.
//
// AnalyzeStore is shorthand for AnalyzeStoreContext with
// context.Background(). AnalyzeStoreContext is the canonical form —
// prefer it in new code; the context-less names are kept for
// compatibility and will eventually be marked deprecated once the
// ecosystem has moved.
func AnalyzeStore(store Store, opts ...Option) (*Report, *RunStats, error) {
	return AnalyzeStoreContext(context.Background(), store, opts...)
}

// AnalyzeStoreContext runs the offline phase over an already-open trace
// store with cancellation, mirroring AnalyzeContext. This is the
// canonical entry point; AnalyzeStore is the background-context
// shorthand.
func AnalyzeStoreContext(ctx context.Context, store Store, opts ...Option) (*Report, *RunStats, error) {
	cfg := applyOptions(opts)
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	rep, err := core.New(store, cfg.core(m)).AnalyzeContext(ctx)
	return result("offline analysis", rep, m, err)
}

// AnalyzeLive tails a trace directory that a collector may still be
// writing and analyzes it online, returning once the run ends with a
// report identical to what a post-mortem analysis of the finished trace
// would produce. Races are surfaced incrementally through WithOnRace as
// barrier episodes seal, while the analysis frontier stays bounded (the
// stream.* metrics measure it). The collector should run with
// WithLiveFlush so committed meta records imply durable log data;
// without it, analysis of an episode simply waits until its data lands.
// A cancelled ctx (the crashed-run case: the end-of-run marker never
// appears) returns the partial live report together with ctx.Err(); a
// damaged trace returns the partial report of a post-mortem pass together
// with an error matching ErrTraceDamaged.
func AnalyzeLive(ctx context.Context, logDir string, opts ...Option) (*Report, *RunStats, error) {
	store, err := trace.NewDirStore(logDir)
	if err != nil {
		return nil, nil, fmt.Errorf("sword: %w", err)
	}
	return AnalyzeLiveStore(ctx, store, opts...)
}

// AnalyzeLiveStore is AnalyzeLive over an already-open trace store — the
// in-process variant for custom pipelines (a MemStore shared with a
// running session, the analysis service's upload directories).
func AnalyzeLiveStore(ctx context.Context, store Store, opts ...Option) (*Report, *RunStats, error) {
	cfg := applyOptions(opts)
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	rep, err := stream.New(store, stream.Config{
		Core:         cfg.core(m),
		PollInterval: cfg.PollInterval,
		OnRace:       cfg.OnRace,
		Obs:          m,
	}).Run(ctx)
	return result("live analysis", rep, m, err)
}

// Check runs program under SWORD with defaults and returns its race
// report — the one-shot entry point.
func Check(program func(rt *Runtime, space *Space)) (*Report, error) {
	s, err := NewSession()
	if err != nil {
		return nil, err
	}
	program(s.Runtime(), s.Space())
	rep, _, err := s.Finish()
	return rep, err
}

// ValidateTrace checks the structural integrity of a collected trace
// directory (see docs/FORMAT.md) without analyzing it — cheap to run
// before shipping logs off a production machine.
func ValidateTrace(logDir string) error {
	store, err := trace.NewDirStore(logDir)
	if err != nil {
		return fmt.Errorf("sword: %w", err)
	}
	if err := trace.Validate(store); err != nil {
		return fmt.Errorf("sword: %w", err)
	}
	return nil
}
