package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"time"

	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/report"
	"sword/internal/trace"
)

// Work connects to the coordinator at addr, analyzes batches from the
// shared store until the coordinator says Shutdown, and returns nil on a
// clean drain. The store must hold the same trace the coordinator
// planned from — workers verify this implicitly: a UnitID that does not
// resolve fails the batch. ctx cancellation aborts the current batch and
// the connection.
//
// Batches are pipelined: a reader goroutine queues incoming batches while
// the analysis loop streams each completed batch's result back on the
// same connection, so the next batch is already local when the current
// one finishes — no dispatch round trip between batches. Interval trees
// built for one batch stay resident (up to the configured budget) for the
// next; see core.Config.ResidentBudget.
//
// With WithDialRetries set, a failed dial or a torn session is retried
// under jittered exponential backoff (WithDialBackoff), so a worker
// started before its coordinator waits for it to come up, and a worker
// surviving a coordinator restart rejoins the new incarnation. The
// analyzer — resident trees included — is built once and survives
// reconnects. The retry budget resets after every completed handshake.
// Cancellation, protocol version mismatches, codec rejections, and
// fault-injection hook deaths are never retried.
func Work(ctx context.Context, addr string, store trace.Store, opts ...Option) error {
	cfg, err := newConfig(opts)
	if err != nil {
		return err
	}
	planStart := time.Now()
	ba, err := core.NewBatchAnalyzer(store, cfg.Core)
	if err != nil {
		return err
	}
	cfg.Obs.Timer("dist.worker_plan").Observe(time.Since(planStart))
	attempt := 0
	for {
		welcomed, err := workSession(ctx, addr, ba, cfg)
		if err == nil || ctx.Err() != nil {
			return err
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return perm.err
		}
		if welcomed {
			attempt = 0 // a completed handshake refills the retry budget
		}
		if attempt >= cfg.DialRetries {
			return err
		}
		attempt++
		cfg.Obs.Counter("dist.worker_reconnects").Inc()
		if err := sleepBackoff(ctx, cfg.DialBackoff, attempt); err != nil {
			return err
		}
	}
}

// errPermanent marks worker failures reconnecting cannot fix; Work's
// retry loop gives up on them immediately.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// sleepBackoff waits out attempt k's jittered delay — about
// base·2^(k-1), uniformly spread over [50%, 150%] so a fleet restarting
// together does not reconnect in lockstep — or returns early on
// cancellation.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	d := base << min(attempt-1, 16)
	d = d/2 + rand.N(d+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// workSession runs one connection lifetime: dial, handshake, analyze
// until shutdown or failure. welcomed reports whether the handshake
// completed, which Work uses to reset the reconnect budget.
func workSession(ctx context.Context, addr string, ba *core.BatchAnalyzer, cfg Config) (welcomed bool, _ error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return false, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	defer conn.Close()
	// A cancelled ctx unblocks any pending read/write by killing the
	// connection; the coordinator sees a dead worker and requeues.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	fr := newFramer(conn, cfg.Obs)
	var offer []string
	if cfg.WireCodec != "raw" {
		offer = []string{cfg.WireCodec}
	}
	if err := fr.send(msgHello, &Hello{Version: protoVersion, Name: cfg.Name, Codecs: offer}); err != nil {
		return false, ctxOr(ctx, err)
	}
	var welcome Welcome
	if err := fr.recvExpect(msgWelcome, &welcome); err != nil {
		return false, ctxOr(ctx, fmt.Errorf("dist: handshake: %w", err))
	}
	if welcome.Version != protoVersion {
		return false, errPermanent{fmt.Errorf("dist: coordinator speaks protocol %d, want %d", welcome.Version, protoVersion)}
	}
	if welcome.Codec != "" {
		offered := false
		for _, n := range offer {
			offered = offered || n == welcome.Codec
		}
		if !offered {
			return false, errPermanent{fmt.Errorf("dist: coordinator picked codec %q, which this worker never offered", welcome.Codec)}
		}
		cd, err := compress.ByName(welcome.Codec)
		if err != nil {
			return false, errPermanent{fmt.Errorf("dist: %w", err)}
		}
		fr.setCodec(cd)
	}

	// Reader: queue batches as they stream in so the analysis loop never
	// waits on the wire. The coordinator bounds the queue by its prefetch
	// window; the channel capacity is just headroom.
	batches := make(chan *Batch, 16)
	readErr := make(chan error, 1)
	go func() {
		defer close(batches)
		for {
			typ, payload, err := fr.recv()
			if err != nil {
				readErr <- fmt.Errorf("dist: await batch: %w", err)
				return
			}
			switch typ {
			case msgShutdown:
				readErr <- nil
				return
			case msgBatch:
				var batch Batch
				if err := decodePayload(typ, payload, &batch); err != nil {
					readErr <- err
					return
				}
				batches <- &batch
			default:
				readErr <- fmt.Errorf("dist: unexpected %s frame awaiting batch", typeName(typ))
				return
			}
		}
	}()
	for batch := range batches {
		if err := runBatch(ctx, fr, ba, batch, cfg); err != nil {
			return true, err // conn closes via defer; the reader unblocks and exits
		}
	}
	if err := <-readErr; err != nil {
		return true, ctxOr(ctx, err)
	}
	return true, nil
}

// ctxOr prefers the context's error once it is done: a torn connection
// after cancellation is the cancellation, not a network failure.
func ctxOr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// errHookDeath marks a fault-injection kill: the worker must die with the
// connection torn and no result sent, unlike an ordinary batch failure.
type errHookDeath struct{ err error }

func (e errHookDeath) Error() string { return e.err.Error() }

// runBatch analyzes one batch under its deadline, heartbeating the whole
// time (the hook included — it models slow batch processing), and streams
// the result. Analysis errors that are the batch's fault (an
// unresolvable unit, the deadline) are reported in Result.Err; transport
// errors and hook-injected deaths propagate and kill the worker.
func runBatch(ctx context.Context, fr *framer, ba *core.BatchAnalyzer, batch *Batch, cfg Config) error {
	bctx := ctx
	var cancel context.CancelFunc
	if batch.TimeLimit > 0 {
		bctx, cancel = context.WithTimeout(ctx, time.Duration(batch.TimeLimit))
		defer cancel()
	}

	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := fr.send(msgHeartbeat, nil); err != nil {
					return // connection gone; the analysis will find out too
				}
				cfg.Obs.Counter("dist.worker_heartbeats").Inc()
			}
		}
	}()
	var rep *report.Report
	busyStart := time.Now()
	err := func() error {
		if cfg.BatchHook != nil {
			if err := cfg.BatchHook(batch.Seq, batch.Units); err != nil {
				return errHookDeath{err}
			}
		}
		var aerr error
		rep, aerr = ba.AnalyzeUnits(bctx, batch.Units)
		return aerr
	}()
	busy := time.Since(busyStart)
	close(hbStop)
	<-hbDone

	res := Result{Seq: batch.Seq, BusyNs: int64(busy)}
	var death errHookDeath
	switch {
	case errors.As(err, &res.Damage):
		res.Err = err.Error()
		cfg.Obs.Counter("dist.worker_batches_failed").Inc()
	case err == nil:
		res.Races = rep.Races()
		res.Stats = rep.Stats
		cfg.Obs.Counter("dist.worker_units_done").Add(uint64(len(batch.Units)))
		cfg.Obs.Counter("dist.worker_batches_done").Inc()
		cfg.Obs.Timer("dist.worker_busy").Observe(busy)
	case errors.As(err, &death):
		// Fault injection models a crashed worker; reconnecting would
		// defeat the test, so the death is permanent.
		return errPermanent{fmt.Errorf("dist: batch hook: %w", death.err)}
	case ctx.Err() != nil:
		return ctx.Err() // worker-level cancellation: die, do not report
	default:
		// Batch-level failure (deadline, bad unit): tell the coordinator
		// so it can requeue without waiting for the liveness timeout.
		res.Err = err.Error()
		cfg.Obs.Counter("dist.worker_batches_failed").Inc()
	}
	return fr.send(msgResult, &res)
}

// inlineCutoff is the plan volume below which Local analyzes in-process.
// On a single-CPU host the cutoff rises to the resident budget: loopback
// workers cannot add parallelism there, so only memory boundedness — a
// plan the budget will not hold resident — justifies the protocol cost.
func inlineCutoff(cfg *Config) int64 {
	if cfg.InlineBelow < 0 {
		return 0
	}
	cut := cfg.InlineBelow
	if runtime.NumCPU() == 1 {
		budget := cfg.ResidentBudget
		if budget == 0 {
			budget = 256 << 20 // core's residentDefault
		}
		if budget > cut {
			cut = budget
		}
	}
	return cut
}

// Local runs the distributed analysis over store in one process and
// returns the merged report — the `sworddist -local N` mode, the smoke
// test, and the harness's distributed lane.
//
// Local is adaptive: when the plan's trace volume falls below the inline
// cutoff (WithInlineBelow), the loopback pool cannot win — serialization,
// compression and scheduling would cost more than they spread — so the
// plan is analyzed directly on the coordinator's own BatchAnalyzer and
// the wire never comes up. Otherwise a coordinator plus n loopback TCP
// workers run the full pipelined protocol. Worker failures are tolerated
// (that is the point of the subsystem); only a failed plan or a failed
// run is an error.
func Local(ctx context.Context, store trace.Store, n int, opts ...Option) (*report.Report, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 2
	}
	coord, err := newCoordinator(store, cfg)
	if err != nil {
		return nil, err
	}
	if coord.ba.Volume() < inlineCutoff(&cfg) {
		return coord.inline(ctx)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ln) }()
	addr := ln.Addr().String()
	for i := 0; i < n; i++ {
		wcfg := cfg
		if wcfg.Name == "" {
			wcfg.Name = fmt.Sprintf("local-%d", i+1)
		}
		go func() {
			// Errors are visible to the coordinator as a dead worker; the
			// remaining workers absorb the requeued units.
			_ = Work(ctx, addr, store, func(c *Config) { *c = wcfg })
		}()
	}
	done := make(chan struct{})
	var rep *report.Report
	var waitErr error
	go func() {
		rep, waitErr = coord.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-done:
	}
	if waitErr != nil {
		return nil, waitErr
	}
	if err := <-serveErr; err != nil {
		return nil, err
	}
	return rep, nil
}

// inline analyzes the coordinator's whole plan in-process on its own
// BatchAnalyzer — same engine, same pairs, same report shape as the wire
// path, minus the wire.
func (c *Coordinator) inline(ctx context.Context) (*report.Report, error) {
	units := c.ba.Units()
	c.m.Counter("dist.inline_runs").Inc()
	if len(units) > 0 {
		rep, err := c.ba.AnalyzeUnits(ctx, units)
		if err != nil {
			return nil, err
		}
		for _, r := range rep.Races() {
			c.rep.Add(r)
		}
		c.rep.Stats.Merge(rep.Stats)
	}
	c.rep.Note("plan of %d byte(s) analyzed inline, below the %d-byte distribution cutoff", c.ba.Volume(), inlineCutoff(&c.cfg))
	c.finish()
	return c.rep, nil
}
