// Package server is the always-on multi-tenant analysis service: an HTTP
// front end that ingests trace uploads from many concurrent client runs,
// queues one analysis job per upload, and serves reports — SWORD's
// production deployment shape, where detection is an ambient facility
// around the fleet rather than a batch tool.
//
// The robustness envelope is the point, not the routing. Admission
// control sheds load early (429 + Retry-After) against a global byte
// budget and per-tenant quotas instead of OOMing late; per-tenant FIFO
// queues drain under deficit-round-robin fairness so a tenant with one
// giant job cannot starve hundreds of small ones; jobs run under
// per-attempt timeouts with bounded exponential-backoff retries (the
// dist requeue discipline); damaged uploads finish as partial reports of
// what survived; jobs that trip the heap guard retry
// under a reduced memory budget before failing loud; and SIGTERM drains
// cleanly — admission stops, in-flight jobs finish or requeue, and the
// queue survives restart through per-job persistence.
//
// See docs/FORMAT.md ("HTTP analysis service") for the API and the
// server.* metrics.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sword/internal/obs"
)

// Config parameterizes the service. The zero value is usable for tests:
// everything in-process, generous budgets, a temp-style DataDir still
// required (New creates it).
type Config struct {
	// DataDir is the persistence root: DataDir/jobs/<id>/ holds each
	// job's record (job.json), uploaded trace (trace/), and report
	// (report.json). Queued jobs found here at startup re-enqueue, which
	// is how the queue survives a restart.
	DataDir string
	// GlobalBytes bounds the total bytes of uploaded trace stored across
	// all live jobs; uploads beyond it are shed with 429 (0 = 4 GiB).
	GlobalBytes int64
	// TenantBytes bounds one tenant's stored upload bytes (0 = a quarter
	// of GlobalBytes).
	TenantBytes int64
	// TenantJobs bounds one tenant's live (queued or running) jobs
	// (0 = 256).
	TenantJobs int
	// Concurrency is how many jobs analyze at once (0 = 2).
	Concurrency int
	// JobMemBudget is the per-job memory budget in bytes of trace volume,
	// handed to the analyzer as core.Config.MemoryBudget and halved on
	// each heap-guard retry (0 = 256 MiB).
	JobMemBudget int64
	// MemBudget is the server-wide heap budget: when sampled heap use
	// exceeds it, the guard cancels the largest running job, which
	// retries under a reduced JobMemBudget (0 = disabled).
	MemBudget int64
	// JobTimeout is the per-attempt deadline (0 = 10m).
	JobTimeout time.Duration
	// MaxAttempts bounds how often one job may run before failing loud
	// (0 = 3).
	MaxAttempts int
	// RetryBackoff is the base requeue delay; attempt k waits
	// RetryBackoff·2^(k-1) — the dist discipline (0 = 500ms).
	RetryBackoff time.Duration
	// Quantum is the deficit-round-robin byte quantum per tenant visit:
	// the fairness grain. Smaller favors small jobs harder (0 = 64 KiB).
	Quantum int64
	// UploadTimeout is how long an upload session may sit idle (no chunk
	// received) before the reaper aborts it, refunding its job slot and
	// bytes — a client that starts a session and walks away cannot hold
	// quota forever (0 = 5m).
	UploadTimeout time.Duration
	// JobTTL is how long a terminal job's record and report stay around
	// after it finishes; the reaper then prunes them from memory and
	// DataDir so an always-on server does not grow without bound
	// (0 = 24h).
	JobTTL time.Duration
	// Workers is the per-job analysis parallelism (0 = GOMAXPROCS via the
	// core default).
	Workers int
	// Obs receives the server.* metrics (nil = a private registry, so
	// /api/v1/metrics always works).
	Obs *obs.Metrics
}

// Option configures New.
type Option func(*Config)

// WithDataDir sets the persistence root.
func WithDataDir(dir string) Option { return func(c *Config) { c.DataDir = dir } }

// WithGlobalBytes bounds total stored upload bytes across all live jobs.
func WithGlobalBytes(n int64) Option { return func(c *Config) { c.GlobalBytes = n } }

// WithTenantBytes bounds one tenant's stored upload bytes.
func WithTenantBytes(n int64) Option { return func(c *Config) { c.TenantBytes = n } }

// WithTenantJobs bounds one tenant's live jobs.
func WithTenantJobs(n int) Option { return func(c *Config) { c.TenantJobs = n } }

// WithConcurrency sets how many jobs analyze at once.
func WithConcurrency(n int) Option { return func(c *Config) { c.Concurrency = n } }

// WithJobMemBudget sets the per-job analyzer memory budget in bytes.
func WithJobMemBudget(n int64) Option { return func(c *Config) { c.JobMemBudget = n } }

// WithMemBudget sets the server-wide heap budget the guard enforces.
func WithMemBudget(n int64) Option { return func(c *Config) { c.MemBudget = n } }

// WithJobTimeout sets the per-attempt deadline.
func WithJobTimeout(d time.Duration) Option { return func(c *Config) { c.JobTimeout = d } }

// WithMaxAttempts bounds runs per job before failing loud.
func WithMaxAttempts(n int) Option { return func(c *Config) { c.MaxAttempts = n } }

// WithRetryBackoff sets the base exponential requeue delay.
func WithRetryBackoff(d time.Duration) Option { return func(c *Config) { c.RetryBackoff = d } }

// WithQuantum sets the round-robin byte quantum (the fairness grain).
func WithQuantum(n int64) Option { return func(c *Config) { c.Quantum = n } }

// WithUploadTimeout sets the idle deadline after which an abandoned
// upload session is reaped.
func WithUploadTimeout(d time.Duration) Option { return func(c *Config) { c.UploadTimeout = d } }

// WithJobTTL sets how long finished jobs and their reports are retained.
func WithJobTTL(d time.Duration) Option { return func(c *Config) { c.JobTTL = d } }

// WithWorkers sets per-job analysis parallelism.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithObs records the server.* metrics into m.
func WithObs(m *obs.Metrics) Option { return func(c *Config) { c.Obs = m } }

func (cfg *Config) fill() error {
	if cfg.DataDir == "" {
		return errors.New("server: DataDir is required")
	}
	if cfg.GlobalBytes == 0 {
		cfg.GlobalBytes = 4 << 30
	}
	if cfg.TenantBytes == 0 {
		cfg.TenantBytes = cfg.GlobalBytes / 4
	}
	if cfg.TenantJobs == 0 {
		cfg.TenantJobs = 256
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 2
	}
	if cfg.JobMemBudget == 0 {
		cfg.JobMemBudget = 256 << 20
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 500 * time.Millisecond
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64 << 10
	}
	if cfg.UploadTimeout == 0 {
		cfg.UploadTimeout = 5 * time.Minute
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = 24 * time.Hour
	}
	for _, f := range []struct {
		name string
		bad  bool
	}{
		{"GlobalBytes", cfg.GlobalBytes < 0},
		{"TenantBytes", cfg.TenantBytes < 0},
		{"TenantJobs", cfg.TenantJobs < 0},
		{"Concurrency", cfg.Concurrency < 0},
		{"JobMemBudget", cfg.JobMemBudget < 0},
		{"MemBudget", cfg.MemBudget < 0},
		{"JobTimeout", cfg.JobTimeout < 0},
		{"MaxAttempts", cfg.MaxAttempts < 0},
		{"RetryBackoff", cfg.RetryBackoff < 0},
		{"Quantum", cfg.Quantum < 0},
		{"UploadTimeout", cfg.UploadTimeout < 0},
		{"JobTTL", cfg.JobTTL < 0},
	} {
		if f.bad {
			return fmt.Errorf("server: %s must be positive", f.name)
		}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	return nil
}

// Server is the analysis service. Create with New, mount Handler() on an
// http.Server (or call Run), and stop with Drain.
type Server struct {
	cfg Config
	m   *obs.Metrics

	mu       sync.Mutex
	cond     *sync.Cond // wakes runners when work or shutdown arrives
	jobs     map[string]*Job
	sched    *scheduler
	uploads  map[string]*uploadSession
	draining bool
	closed   bool

	usedBytes   int64            // admitted upload bytes not yet released
	tenantBytes map[string]int64 // per-tenant share of usedBytes
	tenantLive  map[string]int   // per-tenant queued+running jobs

	runnersWG sync.WaitGroup
	guardStop chan struct{}
	guardDone chan struct{}
}

// New builds the service, recovers persisted jobs from DataDir (queued
// and running jobs re-enqueue; finished ones serve their reports), and
// starts the runner pool and heap guard.
func New(opts ...Option) (*Server, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		m:           cfg.Obs,
		jobs:        make(map[string]*Job),
		sched:       newScheduler(cfg.Quantum),
		uploads:     make(map[string]*uploadSession),
		tenantBytes: make(map[string]int64),
		tenantLive:  make(map[string]int),
		guardStop:   make(chan struct{}),
		guardDone:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.runnersWG.Add(1)
		go s.runner()
	}
	go s.memGuard()
	return s, nil
}

// newID returns a fresh 12-hex-digit job/upload id.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is broken
	}
	return hex.EncodeToString(b[:])
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, cancels running jobs so they requeue, persists
// every queued job, and stops the runner pool and heap guard. It blocks
// until in-flight runners exit or ctx expires. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	s.m.Counter("server.drains").Inc()
	// Wake every idle runner so it observes the shutdown; cancel running
	// jobs with the drain cause so they requeue without burning attempts.
	for _, j := range s.jobs {
		if j.cancel != nil && j.State == StateRunning {
			j.cancel(errDraining)
		}
	}
	sessions := make([]*uploadSession, 0, len(s.uploads))
	for _, u := range s.uploads {
		sessions = append(sessions, u)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	// Stop the upload sessions' live-lane analyzers; the sessions
	// themselves stay (their bytes refund when the reaper or a client
	// abort reaches them, as before).
	for _, u := range sessions {
		u.stopLive()
	}

	close(s.guardStop)
	done := make(chan struct{})
	go func() {
		s.runnersWG.Wait()
		<-s.guardDone
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Runners are gone; persist the final queue state.
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, j := range s.jobs {
		if err := s.persistJob(j); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Run serves the API on srv until ctx is cancelled (SIGTERM in
// cmd/swordserve), then drains with the given grace period and shuts the
// listener down. srv.Handler is set to s.Handler().
func (s *Server) Run(ctx context.Context, srv *http.Server, grace time.Duration) error {
	srv.Handler = s.Handler()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	derr := s.Drain(dctx)
	serr := srv.Shutdown(dctx)
	if derr != nil {
		return derr
	}
	if errors.Is(serr, context.DeadlineExceeded) {
		serr = nil // stragglers past the grace period are expected
	}
	return serr
}
