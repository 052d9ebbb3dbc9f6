// Package rt implements SWORD's dynamic analysis phase: a per-thread,
// bounded-memory trace collector attached to the omp runtime through the
// Tool interface.
//
// Each thread slot owns two fixed-capacity event buffers. Instrumented
// accesses and mutex operations append to one; when it reaches capacity
// the slot swaps in the other and the full one is compressed and written
// to the slot's log file — asynchronously by default, through a pool of
// flush workers, so application threads wait on compression or the file
// system only when the store falls a whole buffer behind (the paper's
// "each thread collects memory accesses into its own buffer ... compresses
// and writes out the buffer to disk"). Barrier-interval boundaries (region
// begin/end, barriers, nested forks) emit meta-data records locating each
// interval fragment's byte range in the log.
//
// Three invariants keep the hot path scalable:
//
//   - Slot lookup is lock-free. The slot table is an atomically published
//     slice, grown copy-on-write under a mutex only when a new slot first
//     appears; Access/MutexAcquired/MutexReleased pay one atomic load.
//   - An access writes only slot-owned state. Event counts are kept by the
//     slot's encoder and folded into the shared counters once per flushed
//     buffer, not once per event.
//   - The flush pipeline preserves per-slot block order while compressing
//     different slots concurrently: a slot has at most one block in
//     flight, because its next fill waits for the other buffer to come
//     back, so blocks of one log are always written in collection order.
//
// The collector's memory use is bounded and application-independent:
// per slot two event buffers (default 25,000 events each) plus the log
// writer's compression staging and fixed auxiliary state — the paper's
// N × (B + C) formula, surfaced by MemoryModel.
package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sword/internal/compress"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// Default bounds, matching Section III-A of the paper.
const (
	// DefaultMaxEvents is the per-thread buffer capacity in events; the
	// paper found 25,000 (≈ 2 MB) optimal for L3 residency.
	DefaultMaxEvents = 25000
	// ModelBufferBytes is the accounted size of one thread's buffer (B).
	ModelBufferBytes = 2 << 20
	// ModelAuxBytes is the accounted per-thread auxiliary and OMPT
	// overhead (C), about 1.3 MB in the paper's measurements.
	ModelAuxBytes = 1_300_000
)

// PCTableAux is the auxiliary file name under which the collector persists
// the interned program-counter table for the offline analyzer.
const PCTableAux = "pctable"

// TaskWaitsAux is the auxiliary file holding taskwait cuts (tasking
// extension): one record per waited task region.
const TaskWaitsAux = "taskwaits"

// Config parameterizes a Collector.
type Config struct {
	// MaxEvents bounds the per-thread buffer; 0 means DefaultMaxEvents.
	MaxEvents int
	// Codec compresses flushed buffers; nil means the LZ77 codec (the
	// paper used LZO).
	Codec compress.Codec
	// Synchronous disables the asynchronous flush pipeline: buffers are
	// compressed and written on the application thread, which then needs
	// only one buffer per slot. Useful for deterministic unit tests and the
	// ablation bench.
	Synchronous bool
	// FlushWorkers bounds the asynchronous flush pipeline's worker pool:
	// how many slots may compress and write concurrently. 0 picks
	// min(GOMAXPROCS, 4); ignored in Synchronous mode. Per-slot block
	// order is preserved regardless of the worker count.
	FlushWorkers int
	// PCs is the program-counter table to persist; nil means
	// pcreg.Default.
	PCs *pcreg.Table
	// Obs, when non-nil, receives the dynamic phase's live metrics
	// (rt.* names, see docs/FORMAT.md): events appended, buffer fills,
	// flush count and latency, raw vs compressed bytes, fragments, and
	// slots. Recording is one atomic add per value; nil disables it.
	Obs *obs.Metrics
	// StaticFilter arms static worksharing certificates (omp.CertTool):
	// accesses a certified loop proves race-free are counted
	// (rt.events_filtered) instead of recorded, and the certificate is
	// persisted as a meta extension record so the analyzer can retire the
	// loop's pair classes. Off by default.
	StaticFilter bool
	// LiveFlush makes every committed meta record a durable promise for a
	// tailing analyzer: before a fragment's meta record is appended, the
	// slot's pending event bytes are written and the log is flushed, so the
	// record's data range is always readable behind the committed log
	// frontier. Implies Synchronous (an asynchronous pipeline cannot order
	// a flush against the meta commit) and trades flush batching for
	// bounded staleness — the live-analysis collection mode.
	LiveFlush bool
}

// Stats aggregates collection counters across all slots.
type Stats struct {
	Events          uint64 // instrumented events recorded
	EventsFiltered  uint64 // accesses dropped by static certificates
	Flushes         uint64 // buffer flushes
	RawBytes        uint64 // uncompressed bytes flushed
	CompressedBytes uint64 // compressed payload bytes written
	Fragments       uint64 // meta-data records emitted
	Slots           int    // thread slots that produced logs
	FlushErrors     uint64 // trace writes that failed (slots degraded, run kept alive)
	DegradedSlots   int    // slots whose trace was truncated by a write failure
}

// Collector is the SWORD dynamic phase. Create one per run with New,
// attach it via omp.WithTool, and Close it after the run to flush
// remaining buffers and persist the PC table.
type Collector struct {
	omp.NopTool

	store        trace.Store
	codec        compress.Codec
	maxEvents    int
	sync         bool
	flushWorkers int
	staticFilter bool
	liveFlush    bool
	pcs          *pcreg.Table

	// table is the atomically published slot table, indexed by slot id.
	// Readers pay one atomic load; mu guards creation and the
	// copy-on-write growth, never the per-event path.
	table  atomic.Pointer[[]*slotState]
	mu     sync.Mutex
	closed bool

	// Region fork/wait boundary cuts, keyed by region id, in the parent
	// interval's cut coordinates (see trace.Meta.Cut). waitCuts holds
	// taskwait joins of the tasking extension; unwaited tasks stay absent
	// (they complete at the barrier, which the interval structure already
	// orders).
	cutMu    sync.Mutex
	forkCuts map[uint64]uint64
	waitCuts map[uint64]uint64

	// Asynchronous flush pipeline: full buffers go to flushWorkers
	// workers on flushCh. inFlight counts blocks handed off and not yet
	// written (at most one per slot), for the high-water gauge.
	flushCh  chan flushJob
	flushWG  sync.WaitGroup
	inFlight atomic.Int64
	active   atomic.Int64

	events         atomic.Uint64
	eventsFiltered atomic.Uint64
	flushes        atomic.Uint64
	fragments      atomic.Uint64
	flushErrors    atomic.Uint64

	// Protocol diagnostics: malformed tool-event sequences (for example a
	// RegionJoin with no matching RegionFork) are recorded here instead of
	// panicking mid-run.
	diagMu sync.Mutex
	diags  []string

	// Observability handles (nil-safe no-ops when Config.Obs is nil).
	// timed gates the time.Now calls so an uninstrumented collector pays
	// no clock reads on the flush path.
	timed        bool
	mEvents      *obs.Counter
	mFiltered    *obs.Counter
	mFills       *obs.Counter
	mFlushes     *obs.Counter
	mRawBytes    *obs.Counter
	mCompBytes   *obs.Counter
	mFragments   *obs.Counter
	mSlots       *obs.Gauge
	mFlushLat    *obs.Timer
	mFlushQueue  *obs.Gauge
	mFlushActive *obs.Gauge
	mWaits       *obs.Counter
	mProtoErrs   *obs.Counter
	mFlushErrs   *obs.Counter
}

// slotState is the per-thread-slot collection state. Only the goroutine
// currently owning the slot mutates the encoder and fragment state; the
// flush pipeline owns the log writer, one worker at a time.
//
// The slot owns two buffers: the encoder fills one, the other is parked in
// spare or in flight on a flush worker, which sends it back to spare once
// written.
type slotState struct {
	slot    int
	enc     trace.Encoder
	log     *trace.LogWriter
	meta    *trace.MetaWriter
	flushed uint64 // logical bytes handed to the flush pipeline

	frag     trace.Meta
	fragOpen bool
	stack    []trace.Meta // suspended enclosing fragments at nested forks
	cuts     map[trace.IntervalKey]uint64

	// certForce keeps the next empty fragment: a fully filtered interval
	// still needs its meta record so the analyzer sees the (empty,
	// certified) unit and can retire its pair classes.
	certForce bool

	spare chan []byte

	// degraded is set when a trace write for this slot fails. The policy
	// for production runs is graceful degradation, not abort: the failure
	// is counted (rt.flush_errors) and diagnosed, further log blocks and
	// meta records for the slot are dropped — truncating its trace at the
	// last successfully written byte, a prefix the offline analyzer
	// recovers — and the application keeps running undisturbed.
	degraded atomic.Bool
}

// New creates a collector writing to store.
func New(store trace.Store, cfg Config) *Collector {
	c := &Collector{
		store:        store,
		codec:        cfg.Codec,
		maxEvents:    cfg.MaxEvents,
		sync:         cfg.Synchronous || cfg.LiveFlush,
		flushWorkers: cfg.FlushWorkers,
		staticFilter: cfg.StaticFilter,
		liveFlush:    cfg.LiveFlush,
		pcs:          cfg.PCs,
		forkCuts:     make(map[uint64]uint64),
		waitCuts:     make(map[uint64]uint64),
	}
	empty := make([]*slotState, 0)
	c.table.Store(&empty)
	if c.codec == nil {
		c.codec = compress.LZSS{}
	}
	if c.maxEvents <= 0 {
		c.maxEvents = DefaultMaxEvents
	}
	if c.flushWorkers <= 0 {
		c.flushWorkers = min(runtime.GOMAXPROCS(0), 4)
	}
	if c.pcs == nil {
		c.pcs = pcreg.Default
	}
	if m := cfg.Obs; m != nil {
		c.timed = true
		c.mEvents = m.Counter("rt.events")
		c.mFiltered = m.Counter("rt.events_filtered")
		c.mFills = m.Counter("rt.buffer_fills")
		c.mFlushes = m.Counter("rt.flushes")
		c.mRawBytes = m.Counter("rt.raw_bytes")
		c.mCompBytes = m.Counter("rt.compressed_bytes")
		c.mFragments = m.Counter("rt.fragments")
		c.mSlots = m.Gauge("rt.slots")
		c.mFlushLat = m.Timer("rt.flush")
		c.mFlushQueue = m.Gauge("rt.flush_queue_peak")
		c.mFlushActive = m.Gauge("rt.flush_active_peak")
		c.mWaits = m.Counter("rt.backpressure_waits")
		c.mProtoErrs = m.Counter("rt.protocol_errors")
		c.mFlushErrs = m.Counter("rt.flush_errors")
	}
	if !c.sync {
		// Each slot has at most one job pending, so the buffer only spares
		// producers a handoff wait while every worker is busy.
		c.flushCh = make(chan flushJob, 256)
		for w := 0; w < c.flushWorkers; w++ {
			c.flushWG.Add(1)
			go c.flushWorker()
		}
		if m := cfg.Obs; m != nil {
			m.Gauge("rt.flush_workers").Set(int64(c.flushWorkers))
		}
	}
	return c
}

// flushJob is one full buffer on its way to its slot's log.
type flushJob struct {
	st  *slotState
	buf []byte
}

// flushWorker writes handed-off buffers and returns each to its slot. A
// slot has at most one block in flight, so two workers never touch the
// same log writer. The buffer goes back on every path — written, dropped
// for a degraded slot, or failed — or the slot's producer would wait
// forever.
func (c *Collector) flushWorker() {
	defer c.flushWG.Done()
	for job := range c.flushCh {
		c.mFlushActive.SetMax(c.active.Add(1))
		c.writeBlock(job.st, job.buf)
		c.active.Add(-1)
		c.inFlight.Add(-1)
		job.st.spare <- job.buf
	}
}

func (c *Collector) writeBlock(st *slotState, buf []byte) {
	if len(buf) == 0 || st.degraded.Load() {
		return
	}
	var start time.Time
	if c.timed {
		start = time.Now()
	}
	compBefore := st.log.CompressedBytes()
	if err := st.log.WriteBlock(buf); err != nil {
		c.degrade(st, fmt.Sprintf("rt: flush slot %d: %v", st.slot, err))
		return
	}
	c.flushes.Add(1)
	if c.timed {
		c.mFlushLat.Observe(time.Since(start))
		c.mFlushes.Inc()
		c.mRawBytes.Add(uint64(len(buf)))
		c.mCompBytes.Add(st.log.CompressedBytes() - compBefore)
	}
}

// degrade marks a slot's trace as truncated after a write failure: the
// error is counted and diagnosed, and the slot stops writing. The
// application thread is never interrupted — that is the whole point of a
// production-run detector.
func (c *Collector) degrade(st *slotState, msg string) {
	c.flushErrors.Add(1)
	c.mFlushErrs.Inc()
	if st.degraded.CompareAndSwap(false, true) {
		c.diag(msg)
	}
}

// discardCloser backs the writers of a slot whose files could not even be
// created: collection proceeds into the void so the run stays alive.
type discardCloser struct{}

func (discardCloser) Write(p []byte) (int, error) { return len(p), nil }
func (discardCloser) Close() error                { return nil }

// state returns (creating if needed) the slot's collection state. The
// common case — the slot already exists — is one atomic load and an
// indexed read, with no shared lock between threads.
func (c *Collector) state(slot int) *slotState {
	tab := *c.table.Load()
	if slot < len(tab) {
		if st := tab[slot]; st != nil {
			return st
		}
	}
	return c.newState(slot)
}

// newState is the slow path: create the slot's writers and publish a new
// table. Publication is copy-on-write so concurrent lock-free readers
// never observe a partially initialized entry.
func (c *Collector) newState(slot int) *slotState {
	c.mu.Lock()
	defer c.mu.Unlock()
	tab := *c.table.Load()
	if slot < len(tab) && tab[slot] != nil {
		return tab[slot] // lost the creation race
	}
	var createErr error
	logSink, err := c.store.CreateLog(slot)
	if err != nil {
		logSink, createErr = discardCloser{}, err
	}
	metaSink, err := c.store.CreateMeta(slot)
	if err != nil {
		metaSink = discardCloser{}
		if createErr == nil {
			createErr = err
		}
	}
	st := &slotState{
		slot:  slot,
		log:   trace.NewLogWriter(logSink, c.codec),
		meta:  trace.NewMetaWriter(metaSink),
		cuts:  make(map[trace.IntervalKey]uint64),
		spare: make(chan []byte, 1),
	}
	st.spare <- nil // the second buffer, allocated by its first fill
	if createErr != nil {
		c.degrade(st, fmt.Sprintf("rt: create trace files for slot %d: %v", slot, createErr))
	}
	grown := make([]*slotState, max(len(tab), slot+1))
	copy(grown, tab)
	grown[slot] = st
	c.table.Store(&grown)
	slots := 0
	for _, s := range grown {
		if s != nil {
			slots++
		}
	}
	c.mSlots.Set(int64(slots))
	return st
}

// snapshot returns the current slot states, skipping unused table entries.
func (c *Collector) snapshot() []*slotState {
	tab := *c.table.Load()
	states := make([]*slotState, 0, len(tab))
	for _, st := range tab {
		if st != nil {
			states = append(states, st)
		}
	}
	return states
}

// logical returns the slot's current logical byte position: flushed bytes
// plus the encoder's pending bytes.
func (st *slotState) logical() uint64 { return st.flushed + uint64(st.enc.Len()) }

// flush folds the buffer's event count into the shared counters and hands
// the buffer to the flush pipeline (or writes it inline in synchronous
// mode), leaving the encoder empty.
func (c *Collector) flush(st *slotState) {
	n := st.enc.Len()
	if n == 0 {
		return
	}
	events := uint64(st.enc.Events())
	c.events.Add(events)
	c.mEvents.Add(events)
	st.flushed += uint64(n)
	if c.sync {
		c.writeBlock(st, st.enc.Bytes())
		st.enc.Reset()
		return
	}
	// Take the other buffer back before handing this one off: if it is
	// still in flight, the producer waits for it (backpressure), which
	// keeps the slot at two buffers and one block in flight.
	var free []byte
	select {
	case free = <-st.spare:
	default:
		c.mWaits.Inc()
		free = <-st.spare
	}
	c.mFlushQueue.SetMax(c.inFlight.Add(1))
	c.flushCh <- flushJob{st: st, buf: st.enc.Swap(free)}
}

// diag records a protocol diagnostic: the collector keeps collecting, the
// malformed sequence is surfaced through Diagnostics and the
// rt.protocol_errors counter instead of a mid-run panic.
func (c *Collector) diag(msg string) {
	c.diagMu.Lock()
	c.diags = append(c.diags, msg)
	c.diagMu.Unlock()
	c.mProtoErrs.Inc()
}

// Diagnostics returns the protocol diagnostics recorded so far (malformed
// tool-event sequences). Empty on a well-formed run.
func (c *Collector) Diagnostics() []string {
	c.diagMu.Lock()
	defer c.diagMu.Unlock()
	out := make([]string, len(c.diags))
	copy(out, c.diags)
	return out
}

// openFragment starts a new interval fragment for the thread's current
// (region, bid) position.
func (c *Collector) openFragment(st *slotState, th *omp.Thread) {
	info := th.Region()
	c.cutMu.Lock()
	parentCut := c.forkCuts[info.ID]
	c.cutMu.Unlock()
	st.frag = trace.Meta{
		PID:       info.ID,
		PPID:      info.ParentID,
		BID:       th.BID(),
		Offset:    uint64(th.ID()) + th.BID()*uint64(info.Size),
		Span:      uint64(info.Size),
		Level:     info.Level,
		DataBegin: st.logical(),
		ParentTID: info.ParentTID,
		ParentBID: info.ParentBID,
		Seq:       info.Seq,
		Held:      th.Held(),
		Cut:       st.cuts[trace.IntervalKey{PID: info.ID, TID: uint64(th.ID()), BID: th.BID()}],
		ParentCut: parentCut,
		Async:     info.Async,
	}
	st.fragOpen = true
}

// closeFragment ends the open fragment, emitting its meta record when it
// captured any data.
func (c *Collector) closeFragment(st *slotState) {
	if !st.fragOpen {
		return
	}
	st.fragOpen = false
	st.cuts[st.frag.Key()]++ // every close is a boundary in cut coordinates
	st.frag.DataSize = st.logical() - st.frag.DataBegin
	force := st.certForce
	st.certForce = false
	if st.frag.DataSize == 0 && !force && !(st.frag.BID == 0 && st.frag.TID() == 0) {
		// Empty interval fragments carry no access data; only the master's
		// first fragment is kept regardless, so every region instance —
		// even one whose own intervals are all empty — appears in some
		// meta-data file with its fork coordinates, which the offline
		// analyzer needs to rebuild the region tree.
		return
	}
	if st.degraded.Load() {
		return
	}
	if c.liveFlush {
		// Make the fragment's event bytes durable before committing the
		// meta record that locates them: a tailing analyzer treats a
		// committed record as a promise that its data range lies behind
		// the committed log frontier.
		c.flush(st) // inline: LiveFlush implies synchronous mode
		if err := st.log.Flush(); err != nil {
			c.degrade(st, fmt.Sprintf("rt: live flush slot %d: %v", st.slot, err))
		}
		if st.degraded.Load() {
			return
		}
	}
	if err := st.meta.Append(&st.frag); err != nil {
		c.degrade(st, fmt.Sprintf("rt: write meta for slot %d: %v", st.slot, err))
		return
	}
	c.fragments.Add(1)
	c.mFragments.Inc()
}

// RegionFork implements omp.Tool: the encountering thread suspends its
// current fragment across the nested region.
func (c *Collector) RegionFork(parent *omp.Thread, region omp.RegionInfo) {
	st := c.state(parent.Slot())
	if st.fragOpen {
		key := st.frag.Key()
		c.closeFragment(st)
		c.cutMu.Lock()
		c.forkCuts[region.ID] = st.cuts[key]
		c.cutMu.Unlock()
		st.stack = append(st.stack, st.frag)
	} else {
		st.stack = append(st.stack, trace.Meta{Span: 0}) // marker: nothing to resume
	}
}

// TaskSpawn implements omp.Tool: the spawner's fragment splits at the
// spawn so accesses before it are ordered before the task; the recorded
// fork cut opens the task's concurrency window within the interval.
func (c *Collector) TaskSpawn(spawner *omp.Thread, task omp.RegionInfo) {
	st := c.state(spawner.Slot())
	if !st.fragOpen {
		return // spawned outside any instrumented interval
	}
	key := st.frag.Key()
	c.closeFragment(st)
	c.cutMu.Lock()
	c.forkCuts[task.ID] = st.cuts[key]
	c.cutMu.Unlock()
	c.openFragment(st, spawner)
}

// TaskWaited implements omp.Tool: the taskwait closes the waited tasks'
// concurrency windows and splits the fragment so subsequent accesses are
// ordered after them.
func (c *Collector) TaskWaited(spawner *omp.Thread, taskIDs []uint64) {
	st := c.state(spawner.Slot())
	if !st.fragOpen {
		return
	}
	key := st.frag.Key()
	c.closeFragment(st)
	c.cutMu.Lock()
	for _, id := range taskIDs {
		c.waitCuts[id] = st.cuts[key]
	}
	c.cutMu.Unlock()
	c.openFragment(st, spawner)
}

// RegionJoin implements omp.Tool: the encountering thread resumes its
// suspended fragment as a fresh fragment with the same interval identity.
// A join with no matching fork (a malformed tool-event sequence) is
// recorded as a diagnostic rather than panicking.
func (c *Collector) RegionJoin(parent *omp.Thread, region omp.RegionInfo) {
	st := c.state(parent.Slot())
	if len(st.stack) == 0 {
		c.diag(fmt.Sprintf("rt: slot %d: RegionJoin of region %d without a matching RegionFork", st.slot, region.ID))
		return
	}
	top := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	if top.Span == 0 {
		return // the fork happened outside any parallel region
	}
	c.openFragment(st, parent)
}

// ParallelBegin implements omp.Tool.
func (c *Collector) ParallelBegin(th *omp.Thread) {
	st := c.state(th.Slot())
	c.openFragment(st, th)
}

// ParallelEnd implements omp.Tool.
func (c *Collector) ParallelEnd(th *omp.Thread) {
	st := c.state(th.Slot())
	c.closeFragment(st)
}

// BarrierArrive implements omp.Tool: the interval ends at the barrier.
// Crucially, the fragment is closed *before* waiting, so threads flush
// their interval data without waiting for each other — the independence
// the paper highlights for barrier-heavy codes.
func (c *Collector) BarrierArrive(th *omp.Thread, _ bool) {
	c.closeFragment(c.state(th.Slot()))
}

// BarrierDepart implements omp.Tool: a new interval begins.
func (c *Collector) BarrierDepart(th *omp.Thread, _ bool) {
	c.openFragment(c.state(th.Slot()), th)
}

// MutexAcquired implements omp.Tool.
func (c *Collector) MutexAcquired(th *omp.Thread, mutex uint64) {
	st := c.state(th.Slot())
	st.enc.Acquire(mutex)
	c.bump(st)
}

// MutexReleased implements omp.Tool.
func (c *Collector) MutexReleased(th *omp.Thread, mutex uint64) {
	st := c.state(th.Slot())
	st.enc.Release(mutex)
	c.bump(st)
}

// Access implements omp.Tool: the hot path.
func (c *Collector) Access(th *omp.Thread, addr uint64, size uint8, write, atomic bool, pc uint64) {
	st := c.state(th.Slot())
	st.enc.Access(addr, size, write, atomic, pc)
	c.bump(st)
}

// LoopCertBegin implements omp.CertTool: when static filtering is on, arm
// the certificate for this thread — record where the loop sits in the
// slot's trace (trace thread id and fragment cut, which the analyzer needs
// to rematerialize a voided certificate into the right unit) and keep the
// interval's meta record even if every access ends up filtered.
func (c *Collector) LoopCertBegin(th *omp.Thread, cert *trace.LoopCert) bool {
	if !c.staticFilter {
		return false
	}
	st := c.state(th.Slot())
	if st.degraded.Load() || !st.fragOpen {
		return false
	}
	cert.Threads[th.ID()] = trace.CertThread{
		TID:     st.frag.TID(),
		Cut:     st.frag.Cut,
		Dropped: cert.Threads[th.ID()].Dropped,
	}
	st.certForce = true
	return true
}

// LoopCertEnd implements omp.CertTool: persist the finalized certificate
// as a meta extension record in this thread's slot and account the
// filtered events.
func (c *Collector) LoopCertEnd(th *omp.Thread, cert *trace.LoopCert) {
	var dropped uint64
	for i := range cert.Threads {
		for _, n := range cert.Threads[i].Dropped {
			dropped += n
		}
	}
	c.eventsFiltered.Add(dropped)
	c.mFiltered.Add(dropped)
	st := c.state(th.Slot())
	if st.degraded.Load() {
		return
	}
	if err := st.meta.AppendCert(cert); err != nil {
		c.degrade(st, fmt.Sprintf("rt: write certificate for slot %d: %v", st.slot, err))
	}
}

func (c *Collector) bump(st *slotState) {
	if st.enc.Events() >= c.maxEvents {
		c.mFills.Inc()
		c.flush(st)
	}
}

// Close flushes every slot's remaining buffer, drains the flush pipeline,
// closes all writers, and persists the PC table. The collector must not be
// used afterwards.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	states := c.snapshot()

	for _, st := range states {
		if st.fragOpen {
			c.closeFragment(st)
		}
		c.flush(st)
	}
	if !c.sync {
		close(c.flushCh)
		c.flushWG.Wait() // every handed-off block is on disk
	}
	var errs []error
	degraded := 0
	for _, st := range states {
		// A closed collector stays reachable for Stats; it keeps no event
		// buffers.
		st.enc.Swap(nil)
		st.spare = nil
		wasDegraded := st.degraded.Load()
		if err := st.log.Close(); err != nil && !wasDegraded {
			errs = append(errs, err)
		}
		if err := st.meta.Close(); err != nil && !wasDegraded {
			errs = append(errs, err)
		}
		if st.degraded.Load() {
			degraded++
		}
	}
	// Taskwaits first, pc table last: the pc table's appearance is the
	// end-of-run marker a tailing analyzer watches for, so every other
	// trace artifact must already be durable when it lands.
	if err := c.writeTaskWaits(); err != nil {
		errs = append(errs, err)
	}
	aux, err := c.store.CreateAux(PCTableAux)
	if err != nil {
		errs = append(errs, err)
	} else {
		if _, err := c.pcs.WriteTo(aux); err != nil {
			errs = append(errs, err)
		}
		if err := aux.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	// Degraded slots already reported their write failures through
	// Diagnostics and rt.flush_errors; summarize rather than repeating each
	// underlying I/O error.
	if n := c.flushErrors.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("rt: %d trace write(s) failed; %d slot(s) degraded, intact trace prefix preserved for salvage", n, degraded))
	}
	return errors.Join(errs...)
}

// writeTaskWaits persists the taskwait cuts for the offline analyzer.
func (c *Collector) writeTaskWaits() error {
	c.cutMu.Lock()
	waits := make(map[uint64]uint64, len(c.waitCuts))
	for id, cut := range c.waitCuts {
		waits[id] = cut
	}
	c.cutMu.Unlock()
	if len(waits) == 0 {
		return nil
	}
	aux, err := c.store.CreateAux(TaskWaitsAux)
	if err != nil {
		return err
	}
	if err := trace.WriteTaskWaits(aux, waits); err != nil {
		aux.Close()
		return err
	}
	return aux.Close()
}

// Stats returns collection counters. Call after Close for final values.
func (c *Collector) Stats() Stats {
	s := Stats{
		Events:         c.events.Load(),
		EventsFiltered: c.eventsFiltered.Load(),
		Flushes:        c.flushes.Load(),
		Fragments:      c.fragments.Load(),
		FlushErrors:    c.flushErrors.Load(),
	}
	for _, st := range c.snapshot() {
		s.Slots++
		s.RawBytes += st.log.RawBytes()
		s.CompressedBytes += st.log.CompressedBytes()
		if st.degraded.Load() {
			s.DegradedSlots++
		}
	}
	return s
}

// MemoryModel returns the accounted dynamic-phase memory overhead for the
// given thread count: N × (B + C), the paper's bounded-overhead formula
// (≈ 3.3 MB per thread), independent of application footprint.
func MemoryModel(threads int) uint64 {
	return uint64(threads) * (ModelBufferBytes + ModelAuxBytes)
}
