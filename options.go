package sword

import "time"

// Config parameterizes a Session or a standalone offline analysis. The
// zero value is ready to use: in-memory store, "lzss" codec, the paper's
// buffer bound, GOMAXPROCS analysis workers.
//
// Config remains fully supported as a plain struct — pass it through
// WithConfig — but the functional options below are the primary surface:
// they compose, keep call sites readable, and let the zero-value defaults
// evolve without breaking callers.
type Config struct {
	// LogDir, when non-empty, stores the trace as files under this
	// directory (sword_<slot>.log / .meta), enabling decoupled offline
	// analysis. Empty means an in-memory store (unless Store is set).
	LogDir string
	// Store, when non-nil, is used directly and takes precedence over
	// LogDir — for custom trace sinks or sharing one store between the
	// collection and analysis halves in-process. If the store implements
	// io.Closer it is closed when the session finishes.
	Store Store
	// Codec names the flush compressor: "lzss" (default), "flate", "raw".
	Codec string
	// MaxEvents bounds the per-thread buffer (0 = 25,000 events, the
	// paper's 2 MB default).
	MaxEvents int
	// FlushWorkers bounds the collector's asynchronous flush pipeline:
	// how many thread slots may compress and write concurrently
	// (0 = min(GOMAXPROCS, 4)). Per-slot block order is preserved for
	// any worker count, so the stored trace is identical.
	FlushWorkers int
	// Workers bounds offline analysis parallelism. Any non-positive value
	// means GOMAXPROCS — the same rule every layer applies (the analyzer,
	// the distributed workers, the CLI flags), so a -1 from a config file
	// behaves like the documented 0.
	Workers int
	// NoSolver replaces the precise strided-intersection decision with
	// the conservative bounding-box overlap (ablation of the paper's
	// Section III-B constraint solving; may report false positives).
	NoSolver bool
	// NoCompact skips interval-tree compaction after building (ablation
	// of the trace-summarization merge step).
	NoCompact bool
	// SubtreeBatch bounds offline resident memory by analyzing the run in
	// batches of top-level region subtrees (0 = whole run in one pass).
	SubtreeBatch int
	// MemoryBudget bounds, in bytes of trace volume, how much of the run
	// the offline analysis materializes at once — the per-job memory knob
	// the analysis service hands down. With SubtreeBatch unset the
	// analyzer derives the largest subtree batch that fits the budget
	// (never below one subtree), and distributed workers seed their
	// resident-tree budget from it. 0 disables; an explicit SubtreeBatch
	// or DistConfig.ResidentBudget wins.
	MemoryBudget int64
	// StaticFilter enables collection-time static filtering: worksharing
	// loops run through the affine capture API (Thread.ForAffine) whose
	// access shapes the runtime proves disjoint across threads are
	// certified, and the collector drops the covered accesses instead of
	// recording them (counted in rt.events_filtered). The offline analysis
	// consumes the published certificates to retire the proven pair
	// classes (core.pairs_retired_static) or, whenever anything casts
	// doubt on a certificate, to reconstruct the dropped accesses exactly
	// — the reported race set is identical with the filter on or off.
	// Loops not using the capture API are unaffected.
	StaticFilter bool
	// NoPrefilter disables the analyzer's summary-based pair pre-filter
	// (ablation): every concurrent unit pair reaches the comparison
	// engine. The race set is identical; only effort counters change.
	NoPrefilter bool
	// AllRaces disables the analyzer's race-site suppression: by default,
	// once a site pair is confirmed racy, further node pairs mapping to
	// the same race record skip the solver (the record they would merge
	// into already exists). AllRaces spends those extra solves so each
	// race's Count reflects every detected instance.
	AllRaces bool
	// LiveFlush makes the collector commit every closed fragment's log
	// data before publishing its meta record, so a concurrently tailing
	// analyzer (AnalyzeLive, cmd/swordwatch) can trust that a committed
	// record's data range is already durable. Implies synchronous
	// collection; costs one log flush per fragment close. Irrelevant to
	// post-mortem analysis.
	LiveFlush bool
	// OnRace, when non-nil, is invoked by AnalyzeLive once per distinct
	// race at the moment it is first detected, while the traced program may
	// still be running. Races reported before the run ends carry
	// placeholder source names (the collector persists its symbol table
	// only at close); the final report is fully symbolized.
	OnRace func(Race)
	// PollInterval is AnalyzeLive's tail poll cadence when a round finds
	// nothing new (0 = 2ms).
	PollInterval time.Duration
	// Obs, when non-nil, is the metrics registry both phases record into;
	// share one registry across sessions and analyses to aggregate. When
	// nil, a private registry is created so RunStats is always populated.
	Obs *Metrics
	// Dist parameterizes the distributed analysis entry points
	// (ServeCoordinator, JoinWorker, AnalyzeDistributed); the other entry
	// points ignore it. See DistConfig and the WithDist* options.
	Dist DistConfig
}

// Option configures a Session, Analyze, or AnalyzeStore.
type Option func(*Config)

// WithConfig overlays an explicit Config — the bridge from the plain
// struct form. Later options still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithLogDir stores the trace under dir for decoupled offline analysis.
func WithLogDir(dir string) Option {
	return func(c *Config) { c.LogDir = dir }
}

// WithStore uses store directly as the trace sink (takes precedence over
// WithLogDir). If it implements io.Closer, finishing the session closes it.
func WithStore(store Store) Option {
	return func(c *Config) { c.Store = store }
}

// WithCodec selects the flush compressor by name: "lzss" (default),
// "flate", "raw".
func WithCodec(name string) Option {
	return func(c *Config) { c.Codec = name }
}

// WithMaxEvents bounds the per-thread event buffer (0 = the paper's
// 25,000-event default).
func WithMaxEvents(n int) Option {
	return func(c *Config) { c.MaxEvents = n }
}

// WithWorkers bounds offline analysis parallelism (<= 0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithFlushWorkers bounds the collection-phase flush pipeline: how many
// thread slots may compress and write concurrently (0 = min(GOMAXPROCS,
// 4)). The stored trace is byte-identical for any worker count.
func WithFlushWorkers(n int) Option {
	return func(c *Config) { c.FlushWorkers = n }
}

// WithNoSolver toggles the bounding-box ablation: overlap is decided
// without the exact strided-intersection solver.
func WithNoSolver(on bool) Option {
	return func(c *Config) { c.NoSolver = on }
}

// WithNoCompact toggles the tree-compaction ablation.
func WithNoCompact(on bool) Option {
	return func(c *Config) { c.NoCompact = on }
}

// WithSubtreeBatch analyzes in batches of n top-level region subtrees to
// bound resident memory (0 = one pass).
func WithSubtreeBatch(n int) Option {
	return func(c *Config) { c.SubtreeBatch = n }
}

// WithMemoryBudget bounds the trace volume the offline analysis
// materializes at once, in bytes (0 = unbounded). The subtree batch size
// is derived from it; see Config.MemoryBudget.
func WithMemoryBudget(bytes int64) Option {
	return func(c *Config) { c.MemoryBudget = bytes }
}

// WithStaticFilter enables collection-time static filtering of certified
// worksharing loops (see Config.StaticFilter). The reported race set is
// identical with the filter on or off; only collection volume and
// analysis effort change.
func WithStaticFilter(on bool) Option {
	return func(c *Config) { c.StaticFilter = on }
}

// WithNoPrefilter disables the summary-based pair pre-filter in the
// offline analysis (ablation; see Config.NoPrefilter).
func WithNoPrefilter(on bool) Option {
	return func(c *Config) { c.NoPrefilter = on }
}

// WithAllRaces disables race-site suppression in the offline analysis:
// every node pair of a confirmed-racy site is still solved and counted
// into the race record's Count, instead of being skipped once the record
// exists. The set of reported races is identical either way; suppression
// only trades instance counts for solver work.
func WithAllRaces(on bool) Option {
	return func(c *Config) { c.AllRaces = on }
}

// WithLiveFlush makes the collector durable enough to tail: every closed
// fragment's log data is committed before its meta record is published
// (see Config.LiveFlush). Enable it on sessions a live analyzer watches.
func WithLiveFlush(on bool) Option {
	return func(c *Config) { c.LiveFlush = on }
}

// WithOnRace installs AnalyzeLive's per-race callback (see Config.OnRace).
func WithOnRace(fn func(Race)) Option {
	return func(c *Config) { c.OnRace = fn }
}

// WithPollInterval sets AnalyzeLive's tail poll cadence (0 = 2ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Config) { c.PollInterval = d }
}

// WithObs records both phases' metrics into m, e.g. a registry shared
// with the rest of the application or exported via an expvar sink.
func WithObs(m *Metrics) Option {
	return func(c *Config) { c.Obs = m }
}

func applyOptions(opts []Option) Config {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}
