package sword

import (
	"context"
	"net"
	"time"

	"sword/internal/core"
	"sword/internal/dist"
	"sword/internal/obs"
)

// DistConfig parameterizes the distributed analysis entry points
// (ServeCoordinator, JoinWorker, AnalyzeDistributed). The zero value is
// ready to use: adaptive batch sizing, one prefetched batch per worker,
// lzss-compressed frames, a 256 MiB resident-tree budget per worker. Like
// Config it remains a plain struct — pass it through WithDist — but the
// WithDist* options below are the primary surface.
type DistConfig struct {
	// BatchUnits fixes how many pair units one batch carries (0 = adaptive
	// from the plan's byte volume: tiny plans run as one batch, large
	// plans split to keep every worker's pipeline fed).
	BatchUnits int
	// Prefetch is how many batches the coordinator keeps queued at each
	// worker beyond the one it is analyzing (0 = the default 1; negative
	// disables prefetching).
	Prefetch int
	// WireCodec names the frame compressor offered in the handshake:
	// "lzss" (default), "flate", or "raw". Peers that cannot agree fall
	// back to raw frames, so mixed versions and mixed configurations
	// interoperate.
	WireCodec string
	// ResidentBudget bounds the trace volume (bytes) whose interval trees
	// a worker keeps resident across batches (0 = 256 MiB, negative
	// disables residency).
	ResidentBudget int64
	// WorkerTimeout is the liveness bound before a silent worker is
	// dropped and its batches requeued (0 = 10s).
	WorkerTimeout time.Duration
	// BatchTimeout is the per-batch deadline, heartbeats or not (0 = 2m).
	BatchTimeout time.Duration
	// MaxAttempts bounds dispatches per unit before the run fails rather
	// than returning a silently incomplete report (0 = 5).
	MaxAttempts int
	// WorkerName labels a JoinWorker in the coordinator's report notes.
	WorkerName string
	// DialRetries is how many times JoinWorker re-attempts the coordinator
	// connection after a dial failure or a torn session before giving up
	// (0 = dial exactly once). With retries a worker started before its
	// coordinator waits for it, and a worker surviving a coordinator
	// restart rejoins instead of dying.
	DialRetries int
	// DialBackoff is the base jittered exponential delay between
	// connection attempts (0 = 250ms).
	DialBackoff time.Duration
}

// WithDist overlays an explicit DistConfig — the bridge from the plain
// struct form. Later WithDist* options still apply on top.
func WithDist(dc DistConfig) Option {
	return func(c *Config) { c.Dist = dc }
}

// WithDistBatchUnits fixes the pair units per batch (0 = adaptive).
func WithDistBatchUnits(n int) Option {
	return func(c *Config) { c.Dist.BatchUnits = n }
}

// WithDistPrefetch sets how many batches stay queued at each worker
// beyond the active one (0 = the default 1; negative disables).
func WithDistPrefetch(n int) Option {
	return func(c *Config) { c.Dist.Prefetch = n }
}

// WithDistWireCodec selects the negotiated frame compressor: "lzss"
// (default), "flate", or "raw".
func WithDistWireCodec(name string) Option {
	return func(c *Config) { c.Dist.WireCodec = name }
}

// WithDistResidentBudget bounds the trace volume whose trees a worker
// keeps resident across batches (0 = 256 MiB, negative disables).
func WithDistResidentBudget(bytes int64) Option {
	return func(c *Config) { c.Dist.ResidentBudget = bytes }
}

// distOptions maps the public configuration onto the internal dist
// options: the analysis knobs shared with AnalyzeStore plus the
// distribution knobs from DistConfig.
func distOptions(cfg Config, m *obs.Metrics) []dist.Option {
	opts := []dist.Option{
		dist.WithCore(core.Config{
			Workers:      cfg.Workers,
			NoSolver:     cfg.NoSolver,
			NoCompact:    cfg.NoCompact,
			AllRaces:     cfg.AllRaces,
			MemoryBudget: cfg.MemoryBudget,
			Obs:          m,
		}),
		dist.WithObs(m),
		dist.WithBatchUnits(cfg.Dist.BatchUnits),
		dist.WithPrefetch(cfg.Dist.Prefetch),
		dist.WithResidentBudget(cfg.Dist.ResidentBudget),
	}
	if cfg.Dist.WireCodec != "" {
		opts = append(opts, dist.WithWireCodec(cfg.Dist.WireCodec))
	}
	if cfg.Dist.WorkerTimeout > 0 {
		opts = append(opts, dist.WithWorkerTimeout(cfg.Dist.WorkerTimeout))
	}
	if cfg.Dist.BatchTimeout > 0 {
		opts = append(opts, dist.WithBatchTimeout(cfg.Dist.BatchTimeout))
	}
	if cfg.Dist.MaxAttempts > 0 {
		opts = append(opts, dist.WithMaxAttempts(cfg.Dist.MaxAttempts))
	}
	if cfg.Dist.WorkerName != "" {
		opts = append(opts, dist.WithName(cfg.Dist.WorkerName))
	}
	if cfg.Dist.DialRetries != 0 {
		opts = append(opts, dist.WithDialRetries(cfg.Dist.DialRetries))
	}
	if cfg.Dist.DialBackoff != 0 {
		opts = append(opts, dist.WithDialBackoff(cfg.Dist.DialBackoff))
	}
	return opts
}

// ServeCoordinator plans the analysis of store, serves batches to workers
// connecting on ln, and blocks until the plan drains (or fails), returning
// the merged report and observability summary. The trace behind store must
// be reachable by every worker — typically a directory store on a shared
// filesystem, the paper's cluster setting. Cancelling ctx closes the
// listener and aborts the run.
//
// The data plane is pipelined (each worker keeps Prefetch batches queued),
// frames are compressed with the negotiated codec, and worker death or
// overrun is survived by requeueing; see docs/FORMAT.md ("Distributed
// analysis") for the wire protocol and the dist.* metrics.
func ServeCoordinator(ctx context.Context, ln net.Listener, store Store, opts ...Option) (*Report, *RunStats, error) {
	cfg := applyOptions(opts)
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	coord, err := dist.NewCoordinator(store, distOptions(cfg, m)...)
	if err != nil {
		return nil, nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ln) }()
	done := make(chan struct{})
	var rep *Report
	var waitErr error
	go func() {
		rep, waitErr = coord.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		ln.Close()
		return nil, nil, ctx.Err()
	case <-done:
	}
	if waitErr != nil {
		return nil, nil, waitErr
	}
	if err := <-serveErr; err != nil {
		return nil, nil, err
	}
	st := newRunStats(m.Snapshot())
	st.Analysis = rep.Stats
	return rep, st, nil
}

// JoinWorker connects to the coordinator at addr and analyzes batches of
// the trace behind store (the same trace the coordinator planned from)
// until the coordinator shuts the connection down cleanly; it returns nil
// on a clean drain. Cancelling ctx aborts the current batch and the
// connection; the coordinator requeues the outstanding work elsewhere.
func JoinWorker(ctx context.Context, addr string, store Store, opts ...Option) error {
	cfg := applyOptions(opts)
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	return dist.Work(ctx, addr, store, distOptions(cfg, m)...)
}

// AnalyzeDistributed runs the distributed analysis over store in one
// process — a coordinator plus `workers` loopback TCP workers — and returns
// the merged report and observability summary; the race set matches
// AnalyzeStore on the same trace. Plans too small for the wire to pay for
// itself are analyzed inline (same engine, no sockets), so
// AnalyzeDistributed is safe to call unconditionally; it is also the
// single-process rehearsal of a real ServeCoordinator/JoinWorker
// deployment.
func AnalyzeDistributed(ctx context.Context, store Store, workers int, opts ...Option) (*Report, *RunStats, error) {
	cfg := applyOptions(opts)
	m := cfg.Obs
	if m == nil {
		m = obs.New()
	}
	rep, err := dist.Local(ctx, store, workers, distOptions(cfg, m)...)
	if err != nil {
		return nil, nil, err
	}
	st := newRunStats(m.Snapshot())
	st.Analysis = rep.Stats
	return rep, st, nil
}
