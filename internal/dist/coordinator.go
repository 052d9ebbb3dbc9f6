package dist

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/obs"
	"sword/internal/report"
	"sword/internal/trace"
)

// Adaptive batch sizing: a plan below smallPlanVolume collapses into one
// batch (the wire cannot pay for itself on work that small); anything
// larger splits into about targetBatches so the plan spreads across
// workers and each worker's pipeline stays fed.
const (
	smallPlanVolume = 1 << 20
	targetBatches   = 16
)

// unitState tracks one pair unit through dispatch, failure, and retry.
type unitState struct {
	pu       core.PairUnit
	planIdx  int       // position in the group-affine schedule
	attempts int       // dispatches so far
	readyAt  time.Time // earliest next dispatch (exponential backoff)
}

// BatchTiming is one accepted batch's shape and measured analysis time —
// the per-batch record the harness feeds into its scale-out projection.
type BatchTiming struct {
	Units  int
	Cost   uint64 // summed byte-volume pair cost
	BusyNs int64  // worker wall time analyzing the batch
}

// Coordinator plans the analysis from the meta files, serves batches to
// workers, merges their results through the report's dedup, and survives
// worker death by requeueing. Dispatch is pipelined: each connection keeps
// up to 1+Prefetch batches outstanding and the worker streams results back
// in order on the same connection, so a worker moves straight from one
// batch to the next without a request/response round trip. One Coordinator
// runs one analysis.
type Coordinator struct {
	cfg        Config
	rep        *report.Report
	m          *obs.Metrics
	ba         *core.BatchAnalyzer // plan only; Local's inline path analyzes on it
	batchUnits int

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*unitState // undispatched units; readyAt may lie ahead
	remaining int          // units not yet accepted into the report
	failed    error        // fatal: a unit exhausted MaxAttempts
	nextSeq   uint64
	nextWID   int
	timings   []BatchTiming
	done      chan struct{}
	doneOnce  sync.Once
}

// NewCoordinator plans the full analysis of store. Only meta files are
// read — the coordinator never streams a log or builds a tree; that is
// the workers' job.
func NewCoordinator(store trace.Store, opts ...Option) (*Coordinator, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	return newCoordinator(store, cfg)
}

func newCoordinator(store trace.Store, cfg Config) (*Coordinator, error) {
	plan, err := core.NewBatchAnalyzer(store, cfg.Core)
	if err != nil {
		return nil, err
	}
	units := plan.Units()
	c := &Coordinator{
		cfg:  cfg,
		rep:  report.New(),
		m:    cfg.Obs,
		ba:   plan,
		done: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.rep.Stats = plan.StructureStats()
	c.batchUnits = cfg.BatchUnits
	if c.batchUnits <= 0 {
		if plan.Volume() < smallPlanVolume {
			c.batchUnits = max(len(units), 1)
		} else {
			c.batchUnits = max(1, (len(units)+targetBatches-1)/targetBatches)
		}
	}
	c.queue = make([]*unitState, len(units))
	for i, pu := range units {
		c.queue[i] = &unitState{pu: pu, planIdx: i}
	}
	c.remaining = len(units)
	c.m.Counter("dist.units_planned").Add(uint64(len(units)))
	if c.remaining == 0 {
		c.finish()
	}
	return c, nil
}

// PlanVolume plans store with the default configuration and returns the
// trace volume (bytes) the adaptive batch-sizing and inline policies
// decide by — the harness reports it next to the lane numbers.
func PlanVolume(store trace.Store) (int64, error) {
	ba, err := core.NewBatchAnalyzer(store, core.Config{})
	if err != nil {
		return 0, err
	}
	return ba.Volume(), nil
}

// finish closes done exactly once; callers hold c.mu or are in New.
func (c *Coordinator) finish() {
	c.doneOnce.Do(func() { close(c.done) })
}

// Timings returns one record per accepted batch, in acceptance order.
func (c *Coordinator) Timings() []BatchTiming {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]BatchTiming, len(c.timings))
	copy(out, c.timings)
	return out
}

// Serve accepts worker connections on ln until the plan is drained or
// failed, then closes the listener. It blocks; run it in a goroutine and
// collect the result with Wait.
func (c *Coordinator) Serve(ln net.Listener) error {
	go func() {
		<-c.done
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return nil
			default:
				return fmt.Errorf("dist: accept: %w", err)
			}
		}
		go c.handle(conn)
	}
}

// Wait blocks until the analysis completes and returns the merged report,
// or the fatal error if a unit exhausted its attempts.
func (c *Coordinator) Wait() (*report.Report, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	return c.rep, nil
}

// takeBatch blocks until up to batchUnits units are ready for dispatch and
// returns them, or nil when the plan is drained or failed — or when
// stopped trips, which a dying connection uses to pull its dispatcher out
// of the wait without touching global state. Backed-off units become ready
// when their readyAt passes; a timer wakes the wait.
func (c *Coordinator) takeBatch(stopped *atomic.Bool) []*unitState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.failed != nil || c.remaining == 0 || stopped.Load() {
			return nil
		}
		now := time.Now()
		var batch []*unitState
		rest := c.queue[:0]
		for _, u := range c.queue {
			if len(batch) < c.batchUnits && !u.readyAt.After(now) {
				batch = append(batch, u)
			} else {
				rest = append(rest, u)
			}
		}
		if len(batch) > 0 {
			c.queue = rest
			for _, u := range batch {
				u.attempts++
			}
			return batch
		}
		// Nothing ready. If units are backing off, arm a wake-up at the
		// earliest readyAt; if everything is in flight, results or requeues
		// will broadcast.
		if len(c.queue) > 0 {
			earliest := c.queue[0].readyAt
			for _, u := range c.queue[1:] {
				if u.readyAt.Before(earliest) {
					earliest = u.readyAt
				}
			}
			t := time.AfterFunc(time.Until(earliest), c.cond.Broadcast)
			c.cond.Wait()
			t.Stop()
		} else {
			c.cond.Wait()
		}
	}
}

// accept merges one batch's result into the report and retires its units.
func (c *Coordinator) accept(batch []*unitState, res *Result) {
	for _, r := range res.Races {
		c.rep.Add(r)
	}
	var cost uint64
	for _, u := range batch {
		cost += u.pu.Cost
	}
	c.mu.Lock()
	c.rep.Stats.Merge(res.Stats)
	c.timings = append(c.timings, BatchTiming{Units: len(batch), Cost: cost, BusyNs: res.BusyNs})
	c.remaining -= len(batch)
	remaining := c.remaining
	c.mu.Unlock()
	c.m.Counter("dist.units_done").Add(uint64(len(batch)))
	c.m.Counter("dist.batches_done").Inc()
	if remaining == 0 {
		c.finish()
	}
	c.cond.Broadcast()
}

// requeue returns failed batches to the queue with exponential backoff,
// or declares the run failed once a unit is out of attempts.
func (c *Coordinator) requeue(worker string, batch []*unitState, cause error) {
	c.mu.Lock()
	now := time.Now()
	lost := 0
	for _, u := range batch {
		if u.attempts >= c.cfg.MaxAttempts {
			lost++
			if c.failed == nil {
				c.failed = fmt.Errorf("dist: unit %+v vs %+v failed %d attempts (last: %v)",
					u.pu.A, u.pu.B, u.attempts, cause)
			}
			continue
		}
		u.readyAt = now.Add(c.cfg.RetryBackoff << min(u.attempts-1, 16))
		c.queue = append(c.queue, u)
	}
	sort.Slice(c.queue, func(i, j int) bool { return c.queue[i].planIdx < c.queue[j].planIdx })
	failed := c.failed
	c.mu.Unlock()
	c.m.Counter("dist.units_retried").Add(uint64(len(batch) - lost))
	c.m.Counter("dist.units_lost").Add(uint64(lost))
	c.m.Counter("dist.workers_dropped").Inc()
	c.rep.Note("worker %s dropped (%v); %d unit(s) requeued, %d lost", worker, cause, len(batch)-lost, lost)
	if failed != nil {
		c.finish()
	}
	c.cond.Broadcast()
}

// abort fails the whole run with err: no retry could complete it.
func (c *Coordinator) abort(err error) {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	c.finish()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// inflight is one dispatched, unacknowledged batch on a connection.
type inflight struct {
	seq      uint64
	batch    []*unitState
	deadline time.Time
}

// workerConn is the per-connection pipelining state shared by a handle's
// dispatcher and reader goroutines.
type workerConn struct {
	c    *Coordinator
	conn net.Conn
	fr   *framer
	name string

	mu      sync.Mutex
	pending []*inflight // dispatch order; results arrive in the same order

	stopped  atomic.Bool
	dead     chan struct{} // closed on failure; wakes the dispatcher's slot wait
	failOnce sync.Once
}

// fail tears the connection down exactly once: outstanding batches are
// requeued, both goroutines are released, and further takeBatch waits
// observe the stop flag. A clean end-of-run exit uses stopQuiet instead.
func (w *workerConn) fail(cause error) {
	w.failOnce.Do(func() {
		w.stopped.Store(true)
		w.mu.Lock()
		pending := w.pending
		w.pending = nil
		w.mu.Unlock()
		var units []*unitState
		for _, inf := range pending {
			units = append(units, inf.batch...)
		}
		if len(units) > 0 {
			w.c.requeue(w.name, units, cause)
		}
		close(w.dead)
		w.conn.Close()
		w.c.cond.Broadcast() // pull a dispatcher out of takeBatch's wait
	})
}

// stopQuiet releases both goroutines at end of run without requeueing or
// drop accounting — the connection is closing because the analysis is
// over, not because the worker died.
func (w *workerConn) stopQuiet() {
	w.failOnce.Do(func() {
		w.stopped.Store(true)
		close(w.dead)
		w.conn.Close()
		w.c.cond.Broadcast()
	})
}

// readDeadline computes the next read deadline: the liveness bound, capped
// by the earliest outstanding batch deadline (heartbeats must not extend a
// batch past BatchTimeout). With nothing outstanding there is no deadline —
// an idle worker sends no frames, and its death surfaces on the next
// dispatch instead.
func (w *workerConn) readDeadline() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) == 0 {
		return time.Time{}
	}
	next := time.Now().Add(w.c.cfg.WorkerTimeout)
	for _, inf := range w.pending {
		if inf.deadline.Before(next) {
			next = inf.deadline
		}
	}
	return next
}

// overrun reports the first outstanding batch past its deadline, if any.
func (w *workerConn) overrun() *inflight {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	for _, inf := range w.pending {
		if now.After(inf.deadline) {
			return inf
		}
	}
	return nil
}

// handle runs one worker connection: handshake with codec negotiation,
// then a dispatcher goroutine that keeps up to 1+Prefetch batches
// outstanding and a reader (this goroutine) that accepts streamed results
// in dispatch order and polices liveness. Any error — protocol violation,
// timeout, a batch overrunning its deadline, an Err result — drops the
// worker and requeues everything outstanding. A dropped worker is never
// handed work again on that connection: results accepted so far came from
// batches that completed wholly, which keeps race-site suppression sound
// (a suppressed instance always has its confirming race in an accepted
// batch).
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	fr := newFramer(conn, c.m)
	conn.SetReadDeadline(time.Now().Add(c.cfg.WorkerTimeout))
	var hello Hello
	if err := fr.recvExpect(msgHello, &hello); err != nil {
		return
	}
	if hello.Version != protoVersion {
		return
	}
	c.mu.Lock()
	c.nextWID++
	name := fmt.Sprintf("w%d", c.nextWID)
	c.mu.Unlock()
	if hello.Name != "" {
		name = fmt.Sprintf("%s(%s)", name, hello.Name)
	}
	// Negotiate the frame codec: the coordinator's configured codec if the
	// worker offered it, bare frames otherwise (an older worker offers
	// nothing; a differently-configured worker offers something else —
	// either way raw is the shared dialect).
	chosen := ""
	if c.cfg.WireCodec != "raw" {
		for _, n := range hello.Codecs {
			if n == c.cfg.WireCodec {
				chosen = n
				break
			}
		}
	}
	if err := fr.send(msgWelcome, &Welcome{Version: protoVersion, Codec: chosen}); err != nil {
		return
	}
	if chosen != "" {
		cd, err := compress.ByName(chosen)
		if err != nil {
			return
		}
		fr.setCodec(cd)
	}
	c.m.Counter("dist.workers_connected").Inc()
	c.m.Gauge("dist.workers_active").Add(1)
	defer c.m.Gauge("dist.workers_active").Add(-1)

	w := &workerConn{c: c, conn: conn, fr: fr, name: name, dead: make(chan struct{})}
	window := 1 + c.cfg.Prefetch
	slots := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		c.dispatch(w, slots)
	}()
	c.readResults(w, slots)
	dwg.Wait()
}

// dispatch keeps the connection's pipeline full: it claims a window slot,
// pulls the next ready batch, registers it as outstanding, and sends it —
// without waiting for earlier batches' results. On a drained or failed
// plan it sends the shutdown frame and leaves the reader to see the
// worker's clean close.
func (c *Coordinator) dispatch(w *workerConn, slots chan struct{}) {
	for {
		select {
		case <-slots:
		case <-w.dead:
			return
		}
		batch := c.takeBatch(&w.stopped)
		if batch == nil {
			if !w.stopped.Load() {
				w.fr.send(msgShutdown, nil)
				// The reader is waiting (deadline-less when nothing is
				// outstanding) for the worker's close; bound that wait.
				w.conn.SetReadDeadline(time.Now().Add(c.cfg.WorkerTimeout))
			}
			return
		}
		c.mu.Lock()
		c.nextSeq++
		seq := c.nextSeq
		c.mu.Unlock()
		units := make([]core.PairUnit, len(batch))
		for i, u := range batch {
			units[i] = u.pu
		}
		// Register before sending: over loopback the result can arrive
		// before a post-send registration would run.
		w.mu.Lock()
		queued := len(w.pending)
		w.pending = append(w.pending, &inflight{seq: seq, batch: batch, deadline: time.Now().Add(c.cfg.BatchTimeout)})
		w.mu.Unlock()
		if err := w.fr.send(msgBatch, &Batch{Seq: seq, Units: units, TimeLimit: int64(c.cfg.BatchTimeout)}); err != nil {
			w.fail(err)
			return
		}
		// Wake the reader's deadline-less idle read so the liveness timer
		// arms against this dispatch.
		w.conn.SetReadDeadline(w.readDeadline())
		c.m.Counter("dist.batches_sent").Inc()
		c.m.Counter("dist.units_dispatched").Add(uint64(len(units)))
		if queued > 0 {
			c.m.Counter("dist.batches_prefetched").Inc()
		}
	}
}

// readResults consumes the worker's streamed frames: heartbeats feed the
// liveness timer, results retire outstanding batches in dispatch order
// and release their pipeline slot.
func (c *Coordinator) readResults(w *workerConn, slots chan struct{}) {
	for {
		w.conn.SetReadDeadline(w.readDeadline())
		typ, payload, err := w.fr.recv()
		if err != nil {
			select {
			case <-c.done:
				// Run already finished (drained or failed): the close is the
				// worker reacting to shutdown, not a death to account.
				w.stopQuiet()
				return
			default:
			}
			if inf := w.overrun(); inf != nil {
				err = fmt.Errorf("batch %d overran its %v deadline", inf.seq, c.cfg.BatchTimeout)
			}
			w.fail(err)
			return
		}
		switch typ {
		case msgHeartbeat:
			c.m.Counter("dist.heartbeats").Inc()
		case msgResult:
			var res Result
			if err := decodePayload(typ, payload, &res); err != nil {
				w.fail(err)
				return
			}
			w.mu.Lock()
			var inf *inflight
			if len(w.pending) > 0 && w.pending[0].seq == res.Seq {
				inf = w.pending[0]
				w.pending = w.pending[1:]
			}
			w.mu.Unlock()
			if inf == nil {
				w.fail(fmt.Errorf("result for batch %d arrived out of order", res.Seq))
				return
			}
			if res.Damage != nil {
				c.abort(fmt.Errorf("dist: worker %s, batch %d: %w", w.name, res.Seq, res.Damage))
				w.stopQuiet()
				return
			}
			if res.Err != "" {
				// Put the failed batch back in front of the requeue set.
				w.mu.Lock()
				w.pending = append([]*inflight{inf}, w.pending...)
				w.mu.Unlock()
				w.fail(fmt.Errorf("worker failed batch %d: %s", res.Seq, res.Err))
				return
			}
			c.accept(inf.batch, &res)
			select {
			case slots <- struct{}{}:
			default:
			}
		default:
			w.fail(fmt.Errorf("unexpected %s frame", typeName(typ)))
			return
		}
	}
}
