// Package stream implements SWORD's online analysis: it tails a trace
// datadir that a collector is still writing and emits races while the
// traced program runs, instead of waiting for the run to finish.
//
// The subsystem composes three layers. The tailing readers in
// internal/trace (MetaTail, LogTail) deliver exactly the committed prefix
// of every growing file, distinguishing the torn tail of an in-progress
// append from real corruption. This package's Analyzer recovers the
// concurrency structure incrementally from those records and decides when
// a barrier episode is *sealed* — no further records or data can arrive
// for it — using the barrier semantics of the collector: a thread closes
// its interval fragments (committing their meta records) before arriving
// at a barrier, so observing any record of barrier interval b+1 for a
// region proves every record of interval b was durably committed first.
// Sealed groups are handed to core.LiveAnalyzer, which compares their
// same-group interval pairs immediately with the persistent sweep engine
// and frees the trees afterwards — the active frontier of the analysis
// stays bounded while the trace grows without bound. Cross-region pairs
// (which depend on task windows written only at collector close) are
// completed by the finalize pass at end of run, which skips every pair the
// live rounds already decided; the reported race set is therefore
// identical to a post-mortem analysis by construction.
//
// End of run is detected by the appearance of the pc-table auxiliary
// file, which the collector writes last; a crashed run never produces it,
// and cancelling the context then returns the partial live report. Real
// corruption (checksum or framing damage over fully present bytes)
// abandons the live state and falls back to a post-mortem analysis, which
// salvages whatever the store holds.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sword/internal/core"
	"sword/internal/obs"
	"sword/internal/report"
	"sword/internal/trace"
)

// Config parameterizes a streaming Analyzer.
type Config struct {
	// Core carries the analyzer knobs (workers, prefilter, probe engine).
	Core core.Config
	// PollInterval is how long the tailer sleeps when a round made no
	// progress. 0 means 2ms — tight enough that detection latency is
	// dominated by the collector's flush cadence, loose enough to stay off
	// the CPU while the workload computes.
	PollInterval time.Duration
	// StepBytes bounds how much sealed trace volume one live round hands
	// the analyzer at once; larger backlogs are split into several steps
	// (never below one group). 0 means 64 MiB.
	StepBytes int64
	// OnRace, when non-nil, is called once per distinct race at the moment
	// it is first reported — the live feed swordwatch prints. Called from
	// the Run goroutine; the race's source names may still be placeholder
	// ids (the collector persists its pc table only at close).
	OnRace func(report.Race)
	// Obs, when non-nil, receives the stream.* metrics (frontier_bytes,
	// epochs_sealed, races_live, tail_retries; see docs/FORMAT.md).
	Obs *obs.Metrics
}

// Analyzer tails one growing trace store and analyzes it online. Create
// with New, drive with Run; Snapshot serves concurrent readers a copy of
// the report so far.
type Analyzer struct {
	store trace.Store
	cfg   Config

	mu   sync.Mutex // serializes live state against Snapshot
	live *core.LiveAnalyzer

	// Per-slot tailing state.
	slots map[int]*slotTail

	// Concurrency-structure bookkeeping accumulated across rounds.
	recs      map[int][]trace.Meta // all committed records, per slot
	certs     []pendingCert
	parentOf  map[uint64]uint64 // region pid -> ppid
	hasRecord map[uint64]bool   // region pids with >=1 record
	maxBid    map[uint64]uint64 // per pid: highest BID observed
	groups    map[core.IntervalGroup]*groupState
	analyzed  map[core.IntervalGroup]bool

	// Region-join tracking: a joined region's whole subtree is sealed at
	// once, which is what lets single-barrier-interval regions (a bare
	// parallel-for) seal before end of run — the prevMax rule alone only
	// seals *within* a region.
	roundNum uint64
	forkOf   map[uint64]forkCoords // pid -> where/when it was forked
	fragMark map[forkPoint]mark    // per (pid,tid): farthest committed fragment (BID, Cut)
	forkMark map[forkPoint]mark    // per (ppid,ptid): farthest registered fork (ParentBID, Seq)
	unjoined map[uint64][]uint64   // ppid -> non-async children with no join evidence yet
	joinedIn map[uint64]uint64     // pid -> round whose drain first read join evidence
	maxTop   uint64                // highest top-level region id observed

	analyzedBytes int64 // trace volume of analyzed (freed) groups
	raceSeen      map[raceKey]bool
	tailRetries   uint64

	// Metrics handles (nil-safe no-ops when cfg.Obs is nil).
	mFrontier     *obs.Gauge
	mFrontierPeak *obs.Gauge
	mCommitted    *obs.Gauge
	mSealed       *obs.Counter
	mRacesLive    *obs.Counter
	mRetries      *obs.Counter
	mSteps        *obs.Counter
	mRounds       *obs.Counter
}

// slotTail is the tailing state of one thread slot.
type slotTail struct {
	slot     int
	meta     *trace.MetaTail
	log      *trace.LogTail
	limit    uint64 // committed physical log frontier (whole frames)
	logFront uint64 // committed logical log frontier
}

// groupState tracks one barrier episode's fragments until it is sealed.
type groupState struct {
	frags []fragRef
	bytes int64
}

type fragRef struct {
	slot int
	end  uint64 // logical end of the fragment's data range
}

// pendingCert holds a certificate record until its group seals: attaching
// a certificate whose thread intervals have not all arrived would be a
// structure error, not a retirement.
type pendingCert struct {
	slot  int
	group core.IntervalGroup
	cert  trace.LoopCert
}

// forkPoint names the thread a region was forked from: the forking
// region instance and the thread id within it. Every top-level region
// shares the (NoParent, 0) point — the serial initial thread.
type forkPoint struct {
	pid uint64
	tid uint64
}

// forkCoords records where in its parent's execution a region was forked.
// The fields are region-level and identical on every fragment meta.
type forkCoords struct {
	ptid  uint64
	pbid  uint64
	pcut  uint64
	seq   uint64
	async bool
}

// mark is a (barrier interval, position) point along one thread's program
// order. Interval-major comparison matches program order because both cut
// and fork-sequence counters reset at barriers.
type mark struct {
	bid, pos uint64
}

func (m mark) less(o mark) bool {
	return m.bid < o.bid || (m.bid == o.bid && m.pos < o.pos)
}

// raceKey mirrors the report's dedup identity, for the OnRace diff.
type raceKey struct {
	pcA, pcB uint64
	wA, wB   bool
}

func keyOfRace(r report.Race) raceKey {
	a, b := r.First, r.Second
	if a.PC > b.PC || (a.PC == b.PC && a.Write && !b.Write) {
		a, b = b, a
	}
	return raceKey{pcA: a.PC, pcB: b.PC, wA: a.Write, wB: b.Write}
}

// New returns a streaming analyzer over store.
func New(store trace.Store, cfg Config) *Analyzer {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.StepBytes <= 0 {
		cfg.StepBytes = 64 << 20
	}
	a := &Analyzer{
		store:     store,
		cfg:       cfg,
		live:      core.NewLive(cfg.Core),
		slots:     make(map[int]*slotTail),
		recs:      make(map[int][]trace.Meta),
		parentOf:  make(map[uint64]uint64),
		hasRecord: make(map[uint64]bool),
		maxBid:    make(map[uint64]uint64),
		groups:    make(map[core.IntervalGroup]*groupState),
		analyzed:  make(map[core.IntervalGroup]bool),
		forkOf:    make(map[uint64]forkCoords),
		fragMark:  make(map[forkPoint]mark),
		forkMark:  make(map[forkPoint]mark),
		unjoined:  make(map[uint64][]uint64),
		joinedIn:  make(map[uint64]uint64),
		raceSeen:  make(map[raceKey]bool),
	}
	m := cfg.Obs
	a.mFrontier = m.Gauge("stream.frontier_bytes")
	a.mFrontierPeak = m.Gauge("stream.frontier_bytes_peak")
	a.mCommitted = m.Gauge("stream.committed_bytes")
	a.mSealed = m.Counter("stream.epochs_sealed")
	a.mRacesLive = m.Counter("stream.races_live")
	a.mRetries = m.Counter("stream.tail_retries")
	a.mSteps = m.Counter("stream.steps")
	a.mRounds = m.Counter("stream.rounds")
	return a
}

// Snapshot returns a copy of the live report: the races confirmed so far
// plus any notes. Safe to call concurrently with Run; the copy is taken
// between analysis rounds.
func (a *Analyzer) Snapshot() *report.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return cloneReport(a.live.Report())
}

func cloneReport(src *report.Report) *report.Report {
	dst := report.New()
	for _, r := range src.Races() {
		dst.Add(r)
	}
	for _, n := range src.Notes() {
		dst.Note("%s", n)
	}
	dst.Stats = src.Stats
	return dst
}

// Run tails the store until the run ends, analyzing sealed barrier
// episodes as they appear, and returns the final report — identical to
// what a post-mortem analysis of the finished trace would produce. A
// cancelled ctx returns the partial live report together with ctx.Err()
// (the crashed-run path: no end-of-run marker will ever appear). Real
// trace corruption falls back to a post-mortem analysis, which returns
// its partial report beside the damage error.
func (a *Analyzer) Run(ctx context.Context) (*report.Report, error) {
	defer a.closeTails()
	for {
		if err := ctx.Err(); err != nil {
			return a.Snapshot(), err
		}
		// End of run: the collector publishes the pc table last, and
		// atomically, so a drain that starts after the table is present
		// sees every record of the run.
		done := a.endMarker()
		progress, err := a.round(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return a.Snapshot(), ctx.Err()
			}
			// Real damage: the live structure can no longer be trusted.
			// Wait for the run to end (or the caller to give up), then
			// analyze whatever survives in one post-mortem pass.
			return a.salvageFallback(ctx, err)
		}
		if done && !progress {
			return a.finalize(ctx)
		}
		if !progress {
			select {
			case <-time.After(a.cfg.PollInterval):
			case <-ctx.Done():
			}
		}
	}
}

// endMarker reports whether the end-of-run marker (the pc table aux file)
// is present. Aux files are published atomically, so presence means the
// table is complete.
func (a *Analyzer) endMarker() bool {
	aux, err := a.store.OpenAux("pctable")
	if err != nil {
		return false
	}
	aux.Close()
	return true
}

// round is one poll-drain-seal-analyze cycle. It returns whether anything
// advanced (new records, new log bytes, or an analysis step ran); an error
// means real corruption or I/O failure, never an in-progress append.
func (a *Analyzer) round(ctx context.Context) (bool, error) {
	a.mRounds.Inc()
	a.roundNum++
	// Seal with the evidence snapshot from *before* this drain: every poll
	// of this round starts after last round's reads finished, so a record
	// written before last round's evidence was read — which includes every
	// record of a group that evidence seals — is visible to this round.
	// (Join evidence applies the same one-round delay via joinedIn.)
	prevMax := make(map[uint64]uint64, len(a.maxBid))
	for pid, bid := range a.maxBid {
		prevMax[pid] = bid
	}
	progress, err := a.drain()
	if err != nil {
		return progress, err
	}
	ready := a.sealedReady(prevMax)
	if len(ready) > 0 {
		if err := a.step(ctx, ready); err != nil {
			return true, err
		}
		progress = true
	}
	a.publishFrontier()
	return progress, nil
}

// drain polls every slot's tails, folding newly committed records into the
// bookkeeping. Meta is polled before the log so a record read this round
// never references data beyond this round's log frontier on a live-flush
// collector.
func (a *Analyzer) drain() (bool, error) {
	slots, err := a.store.Slots()
	if err != nil {
		return false, fmt.Errorf("stream: list slots: %w", err)
	}
	progress := false
	for _, slot := range slots {
		st, ok := a.slots[slot]
		if !ok {
			st = &slotTail{
				slot: slot,
				meta: trace.NewMetaTail(a.store, slot),
				log:  trace.NewLogTail(a.store, slot),
			}
			a.slots[slot] = st
			progress = true
		}
		metas, certs, err := st.meta.Poll()
		if err != nil {
			return progress, err
		}
		for i := range metas {
			a.ingest(slot, &metas[i])
		}
		for _, c := range certs {
			a.certs = append(a.certs, pendingCert{
				slot:  slot,
				group: core.IntervalGroup{PID: c.PID, BID: c.BID},
				cert:  c,
			})
		}
		if len(metas) > 0 || len(certs) > 0 {
			progress = true
		}
		off, logical, err := st.log.Poll()
		if err != nil {
			return progress, err
		}
		if off > st.limit || logical > st.logFront {
			progress = true
		}
		st.limit, st.logFront = off, logical
		if r := st.log.Retries(); r > a.tailRetries {
			a.mRetries.Add(r - a.tailRetries)
			a.tailRetries = r
		}
	}
	return progress, nil
}

// ingest folds one committed meta record into the bookkeeping.
func (a *Analyzer) ingest(slot int, m *trace.Meta) {
	a.recs[slot] = append(a.recs[slot], *m)
	a.parentOf[m.PID] = m.PPID
	a.hasRecord[m.PID] = true
	if m.BID > a.maxBid[m.PID] {
		a.maxBid[m.PID] = m.BID
	}
	g := core.IntervalGroup{PID: m.PID, BID: m.BID}
	gs := a.groups[g]
	if gs == nil {
		gs = &groupState{}
		a.groups[g] = gs
	}
	gs.frags = append(gs.frags, fragRef{slot: slot, end: m.DataBegin + m.DataSize})
	gs.bytes += int64(m.DataSize)
	a.noteJoinEvidence(m)
}

// noteJoinEvidence folds one record into the region-join tracking. Three
// commit-ordered facts prove a non-async region was joined, because the
// forking thread suspends for the region's whole lifetime and every
// fragment close commits its meta record durably before the thread moves
// on: (1) a fragment of the forking thread's own interval with
// Cut >= ParentCut — the fragment at index ParentCut is the one reopened
// by the join itself; (2) any fragment of the forking region with a
// higher BID — departing the interval's barrier proves every thread,
// including the forker, finished the interval, and a non-async join
// precedes the forker's barrier arrival; (3) a sibling forked later from
// the same thread interval (higher Seq, or a later interval) — forks are
// program-ordered on the forking thread. Top-level regions, whose forker
// is the untraced serial thread (and whose fork coordinates are reset per
// Runtime.Parallel call), instead use the region-id order: the analyzer's
// concurrency model orders top-level frames by region id, mirroring the
// runtime's serial fork-join of top-level regions, so a record of a
// higher-id top-level region proves every lower-id one was joined.
// Async regions (tasks) never collect direct evidence — the
// spawner keeps running, so ParentCut-indexed fragments prove nothing —
// and are sealed through a joined ancestor instead: tasks complete at
// their binding region's barriers, so a joined ancestor bounds them too.
func (a *Analyzer) noteJoinEvidence(m *trace.Meta) {
	if _, ok := a.forkOf[m.PID]; !ok {
		fc := forkCoords{
			ptid:  m.ParentTID,
			pbid:  m.ParentBID,
			pcut:  m.ParentCut,
			seq:   m.Seq,
			async: m.Async,
		}
		a.forkOf[m.PID] = fc
		if !fc.async {
			a.unjoined[m.PPID] = append(a.unjoined[m.PPID], m.PID)
		}
		if m.PPID == trace.NoParent {
			if m.PID > a.maxTop {
				a.maxTop = m.PID
			}
		} else {
			fp := forkPoint{pid: m.PPID, tid: fc.ptid}
			if fm := (mark{fc.pbid, fc.seq}); a.forkMark[fp].less(fm) {
				a.forkMark[fp] = fm
			}
		}
		a.sweepJoins(m.PPID)
	}
	fp := forkPoint{pid: m.PID, tid: m.TID()}
	if fm := (mark{m.BID, m.Cut}); a.fragMark[fp].less(fm) {
		a.fragMark[fp] = fm
	}
	a.sweepJoins(m.PID)
}

// sweepJoins re-checks the not-yet-joined children of one region against
// the accumulated evidence, recording the round in which each join became
// visible. Joined children leave the list, so each is scanned only while
// its region is live.
func (a *Analyzer) sweepJoins(ppid uint64) {
	kids := a.unjoined[ppid]
	if len(kids) == 0 {
		return
	}
	keep := kids[:0]
	for _, pid := range kids {
		if a.joinEvidenced(pid, ppid, a.forkOf[pid]) {
			a.joinedIn[pid] = a.roundNum
		} else {
			keep = append(keep, pid)
		}
	}
	if len(keep) == 0 {
		delete(a.unjoined, ppid)
	} else {
		a.unjoined[ppid] = keep
	}
}

func (a *Analyzer) joinEvidenced(pid, ppid uint64, fc forkCoords) bool {
	if ppid == trace.NoParent {
		return pid < a.maxTop // a later top-level region registered
	}
	at := mark{fc.pbid, fc.pcut}
	if fm, ok := a.fragMark[forkPoint{pid: ppid, tid: fc.ptid}]; ok && !fm.less(at) {
		return true // forker's post-join fragment committed
	}
	if a.maxBid[ppid] > fc.pbid {
		return true // a teammate departed the forking interval's barrier
	}
	forked := mark{fc.pbid, fc.seq}
	if mk, ok := a.forkMark[forkPoint{pid: ppid, tid: fc.ptid}]; ok && forked.less(mk) {
		return true // a later sibling fork registered
	}
	return false
}

// joinedChain reports whether the region or any ancestor has join
// evidence that was read before this round's drain started — after a
// join, no thread of the subtree runs, so every record of every group
// under it was committed before the evidence and is visible this round.
func (a *Analyzer) joinedChain(pid uint64) bool {
	for steps := 0; steps <= len(a.parentOf); steps++ {
		if r, ok := a.joinedIn[pid]; ok && r < a.roundNum {
			return true
		}
		pp, ok := a.parentOf[pid]
		if !ok || pp == trace.NoParent {
			return false
		}
		pid = pp
	}
	return false
}

// chainPresent reports whether the region's full ancestor chain has
// records — else assemble would quarantine the region as an orphan.
func (a *Analyzer) chainPresent(pid uint64) bool {
	for steps := 0; steps <= len(a.parentOf); steps++ {
		if !a.hasRecord[pid] {
			return false
		}
		pp := a.parentOf[pid]
		if pp == trace.NoParent {
			return true
		}
		pid = pp
	}
	return false // a parent cycle; let the salvage path diagnose it
}

// sealedReady lists the groups that can be analyzed now: sealed by the
// evidence snapshot (a later interval of the same region, or a join of
// the region or an ancestor), ancestor chains present, and every
// fragment's data behind its slot's committed logical frontier.
func (a *Analyzer) sealedReady(prevMax map[uint64]uint64) []core.IntervalGroup {
	var ready []core.IntervalGroup
	for g, gs := range a.groups {
		if a.analyzed[g] || !a.chainPresent(g.PID) {
			continue
		}
		if prevMax[g.PID] <= g.BID && !a.joinedChain(g.PID) {
			continue
		}
		ok := true
		for _, f := range gs.frags {
			st := a.slots[f.slot]
			if st == nil || f.end > st.logFront {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, g)
		}
	}
	sort.Slice(ready, func(i, j int) bool {
		if ready[i].PID != ready[j].PID {
			return ready[i].PID < ready[j].PID
		}
		return ready[i].BID < ready[j].BID
	})
	return ready
}

// step runs the ready groups through the live analyzer in chunks bounded
// by StepBytes, then reports any newly confirmed races.
func (a *Analyzer) step(ctx context.Context, ready []core.IntervalGroup) error {
	for len(ready) > 0 {
		var budget int64
		n := 0
		for n < len(ready) && (n == 0 || budget < a.cfg.StepBytes) {
			budget += a.groups[ready[n]].bytes
			n++
		}
		chunk, rest := ready[:n], ready[n:]
		if err := a.stepChunk(ctx, chunk); err != nil {
			return err
		}
		ready = rest
	}
	a.reportNewRaces()
	return nil
}

func (a *Analyzer) stepChunk(ctx context.Context, chunk []core.IntervalGroup) error {
	target := make(map[core.IntervalGroup]bool, len(chunk))
	for _, g := range chunk {
		target[g] = true
	}
	inputs := a.assembleInputs(target)
	limits := make(map[int]uint64, len(a.slots))
	for slot, st := range a.slots {
		limits[slot] = st.limit
	}
	a.mu.Lock()
	_, err := a.live.Step(ctx, &prefixStore{Store: a.store, limits: limits}, inputs, target)
	a.mu.Unlock()
	if err != nil {
		return err
	}
	for _, g := range chunk {
		a.analyzed[g] = true
		a.analyzedBytes += a.groups[g].bytes
		a.mSealed.Inc()
	}
	a.mSteps.Inc()
	return nil
}

// assembleInputs builds the SlotRecords a live step consumes: every
// accumulated record whose region's ancestor chain is present (assemble
// would quarantine orphans as damage), plus the certificates of groups that are
// sealed — earlier certificates would reference intervals that have not
// arrived yet.
func (a *Analyzer) assembleInputs(target map[core.IntervalGroup]bool) []core.SlotRecords {
	sealed := func(g core.IntervalGroup) bool { return a.analyzed[g] || target[g] }
	slots := make([]int, 0, len(a.recs))
	for slot := range a.recs {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	inputs := make([]core.SlotRecords, 0, len(slots))
	for _, slot := range slots {
		in := core.SlotRecords{Slot: slot}
		for _, m := range a.recs[slot] {
			if a.chainPresent(m.PID) {
				in.Metas = append(in.Metas, m)
			}
		}
		for _, pc := range a.certs {
			if pc.slot == slot && sealed(pc.group) {
				in.Certs = append(in.Certs, pc.cert)
			}
		}
		if len(in.Metas) > 0 || len(in.Certs) > 0 {
			inputs = append(inputs, in)
		}
	}
	return inputs
}

// reportNewRaces diffs the report against the races already surfaced and
// fires OnRace for each new one.
func (a *Analyzer) reportNewRaces() {
	a.mu.Lock()
	races := a.live.Report().Races()
	a.mu.Unlock()
	for _, r := range races {
		k := keyOfRace(r)
		if a.raceSeen[k] {
			continue
		}
		a.raceSeen[k] = true
		a.mRacesLive.Inc()
		if a.cfg.OnRace != nil {
			a.cfg.OnRace(r)
		}
	}
}

// publishFrontier updates the stream.frontier_bytes gauges: the committed
// trace volume not yet analyzed and freed — the memory-relevant measure of
// the active frontier.
func (a *Analyzer) publishFrontier() {
	var committed int64
	for _, st := range a.slots {
		committed += int64(st.logFront)
	}
	frontier := committed - a.analyzedBytes
	if frontier < 0 {
		frontier = 0
	}
	a.mCommitted.Set(committed)
	a.mFrontier.Set(frontier)
	a.mFrontierPeak.SetMax(frontier)
}

// finalize completes the analysis over the now-finished trace: the full
// post-mortem pass minus every pair the live rounds already decided. The
// result — races, stats, notes — matches a pure post-mortem run.
// closeTails releases every slot's tailing reader (LogTail holds the log
// file open between polls). Idempotent.
func (a *Analyzer) closeTails() {
	for _, st := range a.slots {
		st.log.Close()
	}
}

func (a *Analyzer) finalize(ctx context.Context) (*report.Report, error) {
	a.closeTails()
	a.mu.Lock()
	rep, err := a.live.Finalize(ctx, a.store)
	a.mu.Unlock()
	if rep == nil {
		return nil, err // a damaged trace still has its partial report
	}
	a.reportNewRaces()
	return rep, err
}

// salvageFallback is the corruption path: the live structure is abandoned
// and the store is analyzed post-mortem once the run ends (or immediately
// if it already has); that analysis salvages, and returns its partial
// report together with the damage it found. Torn tails of a still-running
// collector would be misread as truncation, so the fallback waits for the
// end marker first; a cancelled ctx aborts the wait, with no report.
func (a *Analyzer) salvageFallback(ctx context.Context, cause error) (*report.Report, error) {
	for {
		if a.endMarker() {
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("stream: trace damaged while the run was still in progress: %w (%w)", cause, ctx.Err())
		case <-time.After(a.cfg.PollInterval):
		}
	}
	a.closeTails()
	cfg := a.cfg.Core
	cfg.Obs = a.cfg.Obs
	rep, err := core.New(a.store, cfg).AnalyzeContext(ctx)
	if rep == nil {
		return nil, errors.Join(cause, err)
	}
	rep.Note("online analysis aborted (%v); results are from a post-mortem pass", cause)
	return rep, err
}

// prefixStore is the durable-prefix view of a growing store: log readers
// are truncated at the committed-frame frontier the log tail measured, so
// the reader sees a clean end of file, not a torn append it would report
// as damage. Everything else passes through.
type prefixStore struct {
	trace.Store
	limits map[int]uint64
}

func (p *prefixStore) OpenLog(slot int) (io.ReadCloser, error) {
	src, err := p.Store.OpenLog(slot)
	if err != nil {
		return nil, err
	}
	return &limitedLog{r: io.LimitReader(src, int64(p.limits[slot])), c: src}, nil
}

type limitedLog struct {
	r io.Reader
	c io.Closer
}

func (l *limitedLog) Read(p []byte) (int, error) { return l.r.Read(p) }
func (l *limitedLog) Close() error               { return l.c.Close() }

// interface guard: prefixStore must remain a trace.Store.
var _ trace.Store = (*prefixStore)(nil)
