package sword

import (
	"time"

	"sword/internal/obs"
	"sword/internal/report"
	"sword/internal/rt"
)

// Observability re-exports: the metrics registry both SWORD phases record
// into, its snapshot/export types, and the per-phase stats structs.
type (
	// Metrics is a registry of atomic counters, gauges and phase timers
	// (see internal/obs); share one across sessions and analyses via
	// WithObs to aggregate.
	Metrics = obs.Metrics
	// Metric is one instrument's exported state.
	Metric = obs.Metric
	// Snapshot is a point-in-time, name-sorted export of a registry.
	Snapshot = obs.Snapshot
	// Sink exports snapshots (JSON, CSV, expvar — see internal/obs).
	Sink = obs.Sink
	// CollectStats aggregates dynamic-phase counters across all slots.
	CollectStats = rt.Stats
	// AnalysisStats aggregates offline-phase counters.
	AnalysisStats = report.Stats
)

// NewMetrics returns an empty metrics registry for WithObs.
func NewMetrics() *Metrics { return obs.New() }

// WriteMetrics exports a snapshot to path — CSV when the path ends in
// ".csv", indented JSON otherwise (schema in docs/FORMAT.md).
func WriteMetrics(path string, snap Snapshot) error { return obs.WriteFile(path, snap) }

// RunStats is the observability summary of a run: what each phase did and
// how long it took. Session.Finish, Analyze and AnalyzeStore return it
// alongside the report; the full Metrics snapshot is included for
// counters not broken out as fields.
type RunStats struct {
	// Collect holds dynamic-phase counters (zero for offline-only runs).
	Collect CollectStats
	// Analysis holds offline-phase counters (zero after CollectOnly).
	Analysis AnalysisStats
	// Per-phase wall times of the offline analysis.
	Structure    time.Duration // concurrency-structure recovery
	TreeBuild    time.Duration // interval-tree construction (all batches)
	Compare      time.Duration // pair comparison (all batches)
	AnalyzeTotal time.Duration // whole offline phase
	// Block-skipping effect of batched analysis (WithSubtreeBatch): how
	// many log blocks the reader flew over without decompressing, and
	// their compressed payload volume, summed across all batches. Zero in
	// single-pass analyses, which decode everything.
	BlocksSkipped uint64
	SkippedBytes  uint64
	// Comparison-engine effectiveness (core.solver_cache_hits /
	// core.solver_cache_misses / core.sites_suppressed): how many
	// strided-intersection decisions the solver memo answered from cache,
	// how many distinct shapes were actually solved, and how many node
	// pairs race-site suppression retired without any solve. SolverCalls
	// in Analysis equals the misses — the solves that actually ran.
	SolverCacheHits   uint64
	SolverCacheMisses uint64
	SitesSuppressed   uint64
	// Metrics is the registry snapshot the durations were read from.
	Metrics Snapshot
}

// Partial reports whether the analysis lost coverage to a damaged trace:
// races found hold for the surviving data only, and the Analysis coverage
// fields say how much was lost. The analysis error then matches
// ErrTraceDamaged.
func (s *RunStats) Partial() bool { return s.Analysis.Partial() }

// newRunStats folds a registry snapshot into the summary struct.
func newRunStats(snap Snapshot) *RunStats {
	return &RunStats{
		Structure:         snap.Duration("core.phase.structure"),
		TreeBuild:         snap.Duration("core.phase.trees"),
		Compare:           snap.Duration("core.phase.compare"),
		AnalyzeTotal:      snap.Duration("core.phase.total"),
		BlocksSkipped:     uint64(snap.Value("trace.blocks_skipped")),
		SkippedBytes:      uint64(snap.Value("trace.skipped_bytes")),
		SolverCacheHits:   uint64(snap.Value("core.solver_cache_hits")),
		SolverCacheMisses: uint64(snap.Value("core.solver_cache_misses")),
		SitesSuppressed:   uint64(snap.Value("core.sites_suppressed")),
		Metrics:           snap,
	}
}
