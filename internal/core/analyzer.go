// Package core implements SWORD's offline data-race analysis: it recovers
// the concurrency structure of a run from the meta-data files, pairs up
// concurrent barrier intervals, streams the compressed per-thread logs to
// build one augmented red-black interval tree per interval, and compares
// trees of concurrent intervals, deciding precise overlap of strided
// access intervals with the constraint solver. Conflicting concurrent
// accesses with disjoint mutex sets, at least one write, and not both
// atomic are reported as races.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sword/internal/itree"
	"sword/internal/obs"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/trace"
)

// EffectiveWorkers resolves a Workers configuration value to the actual
// pool size: any non-positive value falls back to GOMAXPROCS. Every layer
// that documents a worker-count default defers to this one definition
// (Config.Workers here, sword.WithWorkers, swordoffline -workers,
// sworddist -workers — see docs/FORMAT.md "Worker-count defaults").
func EffectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Config parameterizes the offline analyzer.
type Config struct {
	// Workers bounds the parallelism of tree construction (one worker per
	// thread log, as in the paper) and of interval-pair comparison (the
	// "distributed across a cluster" mode). Non-positive means GOMAXPROCS
	// (see EffectiveWorkers — the single definition of this fallback).
	Workers int
	// PCs symbolizes race reports. When nil the analyzer loads the table
	// the collector persisted into the store, falling back to numeric ids.
	PCs *pcreg.Table
	// NoSolver replaces the precise strided-intersection decision with the
	// conservative bounding-box overlap — the ablation of Section III-B's
	// constraint solving. It may produce false positives on interleaved
	// strided accesses.
	NoSolver bool
	// NoCompact skips the post-build interval-tree compaction pass (the
	// merge step of the paper's trace summarization) — an ablation knob:
	// fragmented traces then compare with more, smaller nodes.
	NoCompact bool
	// SubtreeBatch bounds resident memory by analyzing the run in batches
	// of top-level region subtrees: each batch streams the logs again but
	// only materializes its own interval trees, which are freed before the
	// next batch — the paper's streaming discipline for terabyte traces.
	// Concurrency never crosses top-level subtrees, so results are
	// identical to the default whole-run analysis (0 = analyze everything
	// in one pass).
	SubtreeBatch int
	// NoPrefilter disables the pair pre-filter: by default, unit-level
	// summaries (bounding box, any-write, all-atomic, commonly held
	// mutexes) built alongside each run let the analyzer drop concurrent
	// unit pairs that provably cannot race before any comparison work —
	// reported as Stats.PairsPrefiltered / core.pairs_prefiltered. The
	// filter only applies facts the per-node race check enforces anyway,
	// so disabling it is a pure ablation: same races, more comparisons.
	NoPrefilter bool
	// AllRaces disables race-site suppression. By default, once a
	// (PC, PC) site pair is confirmed racy, later node pairs mapping to
	// the same report record skip the solver — they could only merge into
	// the already-reported race. AllRaces spends those extra solves so the
	// report's per-race Count reflects every detected node-pair instance.
	AllRaces bool
	// ResidentBudget bounds, in bytes of trace volume, the interval trees a
	// BatchAnalyzer keeps resident across distributed batches (LRU by
	// interval; the flattened sweep runs ride along). 0 means the 256 MiB
	// default; negative disables residency so every batch frees its trees.
	// The single-process analyzer ignores it — SubtreeBatch is its
	// memory-bounding knob.
	ResidentBudget int64
	// MemoryBudget bounds, in bytes of trace volume, how much of the run
	// the analyzer materializes at once — the per-job memory knob the
	// analysis service hands down. When SubtreeBatch is 0, the analyzer
	// derives the largest batch of top-level subtrees whose every batch
	// fits the budget (never below 1: a single subtree over budget cannot
	// split further, so peak memory degrades gracefully to the largest
	// subtree). A BatchAnalyzer seeds its ResidentBudget from it when
	// that is unset. 0 disables; an explicit SubtreeBatch wins.
	MemoryBudget int64
	// ProbeEngine selects the legacy tree-probing comparison path: each
	// node of the smaller tree probes the other tree's overlap index, and
	// every eligible pair is solved directly (no solver memo, no race-site
	// suppression). The flattened-run merge sweep is the default; the
	// probe engine is kept as the reference implementation for the
	// differential tests and A/B benchmarks.
	ProbeEngine bool
	// Obs, when non-nil, receives the offline phase's live metrics
	// (core.* and trace.* names, see docs/FORMAT.md): per-phase wall
	// times (structure recovery, tree build, pair comparison), interval
	// pairs, solver invocations vs bounding-box fast-paths, peak
	// resident tree nodes under SubtreeBatch, and the trace volume
	// consumed. nil disables recording.
	Obs *obs.Metrics
}

// Analyzer runs the offline phase over one run's trace store. Every
// analysis salvages: intervals whose data was lost are quarantined, every
// surviving concurrent pair is analyzed, and the partial report comes back
// with the damage as a *trace.SalvageReport error (nil on an intact trace).
type Analyzer struct {
	store trace.Store
	cfg   Config

	// Log damage per slot, merged from every pass over the logs. A pass
	// decodes only the blocks it builds from, so each pass adds what its
	// blocks revealed; lost spans are keyed by logical position, so a
	// block two passes decode counts once.
	dmgMu sync.Mutex
	dmg   map[int]*slotDamage

	// blockBufs keeps the slot pipelines' block buffers between slots, so
	// SubtreeBatch batches and distributed work lists re-stream the logs
	// without reallocating them. A running pipeline holds exactly two and
	// at most workers slots stream at once, so it holds two per worker. A
	// live run hands every round's analyzer the same stash.
	bufsOnce  sync.Once
	blockBufs chan []byte

	// blocksDecoded counts the log blocks every pass decompressed (read,
	// not skipped), for the live finalize pass's accounting.
	blocksDecoded atomicCounter
}

// newBlockStash returns a stash of two block buffers per worker, each
// grown to the block size on first use.
func newBlockStash(workers int) chan []byte {
	stash := make(chan []byte, 2*workers)
	for range 2 * workers {
		stash <- nil
	}
	return stash
}

// slotDamage is what the passes over one slot's log found wrong with it.
// logEnd is recorded for every slot a pass read, damaged or not: meta
// records pointing past it reference data the log never held (all of
// them, when the log could not even be opened).
type slotDamage struct {
	logEnd    uint64                        // logical end of the readable log
	truncated bool                          // the log ended early
	lost      map[uint64]trace.SalvageEntry // lost spans, by logical start
	framing   map[uint64]trace.SalvageEntry // damage without a span, by file offset
	stray     map[uint64]uint64             // accesses no fragment owns, by block start
}

func newSlotDamage() *slotDamage {
	return &slotDamage{lost: make(map[uint64]trace.SalvageEntry),
		framing: make(map[uint64]trace.SalvageEntry), stray: make(map[uint64]uint64)}
}

// damaged reports whether any of the interval's fragments lost data: a
// fragment intersecting a lost span, or extending past the readable end
// of the log (data the crashed collector never wrote).
func (d *slotDamage) damaged(iv *interval) bool {
	for _, f := range iv.frags {
		fEnd := f.begin + f.size
		if fEnd > d.logEnd {
			return true
		}
		for _, e := range d.lost {
			if f.begin < e.LogicalEnd && e.LogicalStart < fEnd {
				return true
			}
		}
	}
	return false
}

// New returns an analyzer over store.
func New(store trace.Store, cfg Config) *Analyzer {
	return &Analyzer{store: store, cfg: cfg}
}

// Analyze performs the full offline analysis and returns the race report.
func (a *Analyzer) Analyze() (*report.Report, error) {
	return a.AnalyzeContext(context.Background())
}

// loadPCs resolves the symbolization table: the configured one, the table
// the collector persisted into the store, or a fresh empty table. A
// damaged persisted table degrades to numeric ids and comes back as damage:
// symbolization is a nicety, not a reason to abandon the analysis.
func (a *Analyzer) loadPCs() (*pcreg.Table, []trace.SalvageEntry) {
	if a.cfg.PCs != nil {
		return a.cfg.PCs, nil
	}
	aux, err := a.store.OpenAux("pctable")
	if err != nil {
		return pcreg.NewTable(), nil
	}
	pcs, err := pcreg.ReadTable(aux)
	aux.Close()
	if err != nil {
		return pcreg.NewTable(), []trace.SalvageEntry{{File: "aux pctable", Block: -1,
			Cause: fmt.Sprintf("unreadable (%v); race sites reported as numeric ids", err)}}
	}
	return pcs, nil
}

// AnalyzeContext is Analyze with cancellation: the analysis aborts with
// ctx.Err() at the next block read or pair comparison once ctx is done —
// the hook distributed per-batch deadlines and swordoffline's Ctrl-C
// handling need. On a damaged trace it returns the partial report and
// the damage as a *trace.SalvageReport error.
func (a *Analyzer) AnalyzeContext(ctx context.Context) (*report.Report, error) {
	rep := report.New()
	pcs, pcDamage := a.loadPCs()
	return a.analyze(ctx, newCompareEngine(a.cfg, pcs, rep), rep, pcDamage)
}

// analyze is the batched analysis loop behind AnalyzeContext. pcDamage is
// what loadPCs found wrong with the pc table.
func (a *Analyzer) analyze(ctx context.Context, eng *compareEngine, rep *report.Report, pcDamage []trace.SalvageEntry) (*report.Report, error) {
	workers := EffectiveWorkers(a.cfg.Workers)
	m := a.cfg.Obs
	totalStart := time.Now()

	phaseStart := time.Now()
	s, err := buildStructure(a.store)
	if err != nil {
		return nil, err
	}
	s.damage = slices.Concat(pcDamage, s.damage)
	m.Timer("core.phase.structure").Observe(time.Since(phaseStart))

	rep.Stats.Intervals = len(s.intervals)
	rep.Stats.Regions = len(s.regions)
	m.Counter("core.intervals").Add(uint64(len(s.intervals)))
	m.Counter("core.regions").Add(uint64(len(s.regions)))

	// Batches of top-level subtrees: concurrency never crosses them, so
	// each batch is a self-contained analysis whose trees can be freed
	// afterwards.
	tops := make([]uint64, 0, len(s.topGroups))
	for id := range s.topGroups {
		tops = append(tops, id)
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i] < tops[j] })
	batch := a.cfg.SubtreeBatch
	if batch <= 0 && a.cfg.MemoryBudget > 0 {
		batch = budgetBatch(s, tops, a.cfg.MemoryBudget)
		m.Gauge("core.budget_batch").Set(int64(batch))
	}
	if batch <= 0 || batch > len(tops) {
		batch = len(tops)
	}
	for lo := 0; lo < len(tops) || lo == 0; lo += batch {
		hi := min(lo+batch, len(tops))
		var include map[uint64]bool // nil = everything (single batch)
		if hi-lo < len(tops) {
			include = make(map[uint64]bool, hi-lo)
			for _, id := range tops[lo:hi] {
				include[id] = true
			}
		}
		// Trace-volume counters only on the first pass: every batch
		// streams the full logs again, which must not double-count.
		phaseStart = time.Now()
		if err := a.buildTrees(ctx, s, workers, logPass{include: include, events: lo == 0, volume: lo == 0}); err != nil {
			return nil, err
		}
		m.Timer("core.phase.trees").Observe(time.Since(phaseStart))
		// Quarantine what this pass found damaged before any pairing or
		// accounting sees its trees.
		a.applyQuarantine(s, nil)
		pairs, dropped, retired := enumeratePairs(s, include, true, !a.cfg.NoPrefilter, false)
		total := len(pairs)
		schedulePairs(pairs)
		rep.Stats.IntervalPairs += total
		rep.Stats.PairsPrefiltered += dropped
		m.Counter("core.pairs_prefiltered").Add(dropped)
		rep.Stats.PairsRetiredStatic += retired
		m.Counter("core.pairs_retired_static").Add(retired)
		batchNodes := 0
		for _, iv := range s.intervals {
			if include == nil || include[iv.region.top.id] {
				for _, u := range iv.units {
					batchNodes += u.nodeCount()
					rep.Stats.Accesses += u.accesses()
				}
			}
		}
		rep.Stats.TreeNodes += batchNodes
		m.Counter("core.batches").Inc()
		m.Counter("core.interval_pairs").Add(uint64(total))
		m.Counter("core.tree_nodes").Add(uint64(batchNodes))
		m.Gauge("core.tree_nodes_peak").SetMax(int64(batchNodes))
		phaseStart = time.Now()
		if err := comparePairs(ctx, eng, workers, pairs); err != nil {
			return nil, err
		}
		m.Timer("core.phase.compare").Observe(time.Since(phaseStart))
		if include != nil {
			// Free this batch's trees before streaming the next one.
			for _, iv := range s.intervals {
				if include[iv.region.top.id] {
					iv.resetUnits()
				}
			}
		}
		if len(tops) == 0 {
			break
		}
	}
	return rep, a.finish(s, eng, rep, totalStart)
}

// finish closes an analysis: it folds the damage into the report, copies
// the engine's effort counters into the stats and the registry, and stops
// the core.phase.total timer. It returns the damage as the analysis error.
func (a *Analyzer) finish(s *structure, eng *compareEngine, rep *report.Report, start time.Time) error {
	m := a.cfg.Obs
	damage := a.finishDamage(s, rep)
	rep.Stats.NodeComparisons = eng.comparisons.load()
	rep.Stats.SolverCalls = eng.solverCalls.load()
	rep.Stats.SolverCacheHits = eng.cacheHits.load()
	rep.Stats.SolverCacheMisses = eng.cacheMisses.load()
	rep.Stats.SitesSuppressed = eng.suppressed.load()
	m.Counter("core.accesses").Add(rep.Stats.Accesses)
	m.Counter("core.node_comparisons").Add(eng.comparisons.load())
	m.Counter("core.solver_calls").Add(eng.solverCalls.load())
	m.Counter("core.bbox_fastpath").Add(eng.bboxFast.load())
	m.Counter("core.solver_cache_hits").Add(eng.cacheHits.load())
	m.Counter("core.solver_cache_misses").Add(eng.cacheMisses.load())
	m.Counter("core.sites_suppressed").Add(eng.suppressed.load())
	m.Counter("core.races").Add(uint64(rep.Len()))
	m.Timer("core.phase.total").Observe(time.Since(start))
	return damage
}

// budgetBatch derives the largest SubtreeBatch whose every consecutive
// batch of top-level subtrees fits the memory budget, measured in trace
// volume — the same cost model the resident LRU and the dist batch
// sizing use. Always at least 1: a single subtree over budget cannot be
// split further, so it runs alone and peak memory degrades to the
// largest subtree rather than failing.
func budgetBatch(s *structure, tops []uint64, budget int64) int {
	vol := make(map[uint64]int64, len(tops))
	for _, iv := range s.intervals {
		vol[iv.region.top.id] += intervalBytes(iv)
	}
	prefix := make([]int64, len(tops)+1)
	for i, id := range tops {
		prefix[i+1] = prefix[i] + vol[id]
	}
	// O(n log n) overall: checking one k costs n/k chunk sums.
	for k := len(tops); k > 1; k-- {
		fits := true
		for lo := 0; lo < len(tops) && fits; lo += k {
			hi := min(lo+k, len(tops))
			fits = prefix[hi]-prefix[lo] <= budget
		}
		if fits {
			return k
		}
	}
	return 1
}

// applyQuarantine marks the intervals whose data a pass over the logs
// found damaged — all of them, or those in only — and frees any trees
// already built for them, so neither pairing nor the effort accounting
// sees partial data. The flags persist across SubtreeBatch batches.
func (a *Analyzer) applyQuarantine(s *structure, only map[*interval]bool) {
	a.dmgMu.Lock()
	defer a.dmgMu.Unlock()
	for slot, ivs := range s.bySlot {
		d := a.dmg[slot]
		if d == nil {
			continue
		}
		for _, iv := range ivs {
			if !iv.quarantined && (only == nil || only[iv]) && d.damaged(iv) {
				iv.quarantined = true
			}
			if iv.quarantined && iv.units != nil {
				iv.resetUnits()
			}
		}
	}
}

// damage merges everything the analysis found wrong with the trace into
// one report, in a deterministic order: the aux files and the structure's
// meta damage, then slot by slot its log damage in offset order and its
// quarantined intervals in log order. Spans past a log's end come from a
// pass that skipped the block where it ended (see mergeDamage) and are
// left out. The report is clean on an intact trace.
func (a *Analyzer) damage(s *structure) *trace.SalvageReport {
	r := &trace.SalvageReport{Truncated: len(s.truncatedMeta) > 0}
	r.Entries = append(r.Entries, s.damage...)
	a.dmgMu.Lock()
	defer a.dmgMu.Unlock()
	for _, slot := range slices.Sorted(maps.Keys(a.dmg)) {
		d := a.dmg[slot]
		file := fmt.Sprintf("log %d", slot)
		var lostBytes uint64
		for _, start := range slices.Sorted(maps.Keys(d.lost)) {
			e := d.lost[start]
			if start >= d.logEnd {
				continue
			}
			r.CorruptBlocks++
			lostBytes += min(e.LogicalEnd, d.logEnd) - e.LogicalStart
			r.Entries = append(r.Entries, e)
		}
		r.LostBytes += lostBytes
		r.SalvagedBytes += d.logEnd - lostBytes
		for _, off := range slices.Sorted(maps.Keys(d.framing)) {
			r.Entries = append(r.Entries, d.framing[off])
		}
		r.Truncated = r.Truncated || d.truncated
		var stray uint64
		for start, n := range d.stray {
			if start < d.logEnd {
				stray += n
			}
		}
		if stray > 0 {
			r.Entries = append(r.Entries, trace.SalvageEntry{File: file, Block: -1,
				Cause: fmt.Sprintf("%d access(es) outside every interval fragment dropped", stray)})
		}
		for _, iv := range s.bySlot[slot] {
			if iv.quarantined && !iv.region.quarantined {
				r.Entries = append(r.Entries, trace.SalvageEntry{File: file, Block: -1,
					Cause: fmt.Sprintf("interval %+v quarantined: its log data was lost", iv.key)})
			}
		}
	}
	return r
}

// finishDamage folds the damage into the report — one note per entry,
// the coverage stats and the trace.* salvage metrics — and returns it as
// the analysis error, nil on an intact trace (whose stats stay zero).
func (a *Analyzer) finishDamage(s *structure, rep *report.Report) error {
	d := a.damage(s)
	if d.Clean() {
		return nil
	}
	for _, e := range d.Entries {
		rep.Note("%s", e)
	}
	quarantined := 0
	for _, iv := range s.intervals {
		if iv.quarantined {
			quarantined++
		}
	}
	truncSlots := len(s.truncatedMeta)
	a.dmgMu.Lock()
	for slot, sd := range a.dmg {
		if sd.truncated && !s.truncatedMeta[slot] {
			truncSlots++
		}
	}
	a.dmgMu.Unlock()
	rep.Stats.IntervalsQuarantined = quarantined
	rep.Stats.CorruptBlocks = d.CorruptBlocks
	rep.Stats.TruncatedSlots = truncSlots
	rep.Stats.SalvagedBytes = d.SalvagedBytes
	rep.Stats.LostBytes = d.LostBytes
	m := a.cfg.Obs
	m.Counter("trace.corrupt_blocks").Add(uint64(d.CorruptBlocks))
	m.Counter("trace.truncated_slots").Add(uint64(truncSlots))
	m.Counter("trace.salvaged_bytes").Add(d.SalvagedBytes)
	m.Counter("trace.lost_bytes").Add(d.LostBytes)
	m.Counter("core.intervals_quarantined").Add(uint64(quarantined))
	if rep.Stats.Partial() {
		rep.Note("partial trace: %d of %d interval(s) quarantined; races hold for the surviving data only",
			quarantined, len(s.intervals))
	}
	return d
}

// mergeDamage folds one pass's findings over a slot's log into the
// analyzer's record of that slot. The earliest truncation is the log's
// end: a block whose raw length lies ends the stream of the pass that
// decodes it, while a pass that skips it reads on at shifted offsets.
// Batches run in top-level region order, which is log order, so the
// decoding pass runs first, and its quarantine flags every interval past
// that end, later batches' too, before they are built.
func (a *Analyzer) mergeDamage(slot int, pass *slotDamage) {
	a.dmgMu.Lock()
	defer a.dmgMu.Unlock()
	if a.dmg == nil {
		a.dmg = make(map[int]*slotDamage)
	}
	d := a.dmg[slot]
	if d == nil {
		a.dmg[slot] = pass
		return
	}
	switch {
	case pass.truncated && (!d.truncated || pass.logEnd < d.logEnd):
		d.logEnd, d.truncated = pass.logEnd, true
	case !d.truncated:
		d.logEnd = max(d.logEnd, pass.logEnd)
	}
	maps.Copy(d.lost, pass.lost)
	maps.Copy(d.framing, pass.framing)
	maps.Copy(d.stray, pass.stray)
}

// comparePairs drains the scheduled pairs through a pool of engine
// workers. A done ctx aborts between pairs: workers skip remaining work
// and the error returned is ctx.Err().
func comparePairs(ctx context.Context, eng *compareEngine, workers int, pairs [][2]*treeUnit) error {
	var wg sync.WaitGroup
	ch := make(chan [2]*treeUnit, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := eng.newWorker()
			for pair := range ch {
				if ctx.Err() != nil {
					continue // drain without comparing
				}
				worker.comparePair(pair[0], pair[1])
			}
			worker.flush()
		}()
	}
send:
	for _, p := range pairs {
		select {
		case ch <- p:
		case <-ctx.Done():
			break send
		}
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// logPass says what one pass over the logs builds and what it reads.
type logPass struct {
	include map[uint64]bool    // build only these top-level subtrees (nil: all)
	only    map[*interval]bool // build only these intervals (nil: all)
	// decoded, when non-nil, holds per slot the logical spans earlier
	// passes decoded, sorted and disjoint: the pass then walks every
	// slot's log to its end and skips exactly the blocks lying wholly
	// inside them — the live finalize pass.
	decoded map[int][][2]uint64
	events  bool // add the events decoded to trace.events
	volume  bool // add the log volume walked to trace.blocks and the byte totals
}

// buildTrees streams every slot's log once, routing access events into the
// interval trees of that slot's intervals (restricted to the top-level
// subtrees in pass.include when non-nil, and to the explicit interval set
// in pass.only when non-nil — the live and distributed paths, which also
// skip slots owning no wanted interval entirely unless pass.decoded is
// set). Each slot is processed by a single worker — tree construction is
// not shared, matching the paper's note that each core generates the tree
// of a different thread. Batched passes set pass.volume only on the first
// batch, because later batches re-stream the same logs.
func (a *Analyzer) buildTrees(ctx context.Context, s *structure, workers int, pass logPass) error {
	slots := make([]int, 0, len(s.bySlot))
	for slot := range s.bySlot {
		if pass.only != nil && pass.decoded == nil &&
			!slices.ContainsFunc(s.bySlot[slot], func(iv *interval) bool { return pass.only[iv] }) {
			continue // no referenced interval lives here: skip the log
		}
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	a.bufsOnce.Do(func() {
		if a.blockBufs == nil {
			a.blockBufs = newBlockStash(workers)
		}
	})
	sem := make(chan struct{}, workers)
	errs := make(chan error, len(slots))
	var wg sync.WaitGroup
	for _, slot := range slots {
		wg.Add(1)
		sem <- struct{}{}
		go func(slot int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs <- a.buildSlotTrees(ctx, s, slot, pass)
		}(slot)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// slotCursor walks a slot's interval fragments in log order, and owns the
// lifetime of the units it builds: a unit is finalized — its slab sorted
// into the finished run and handed back to the pool — once the cursor has
// passed the unit's last fragment. A slot's build scratch is thus bounded
// by the units open at the cursor, not by the intervals in its log.
type slotCursor struct {
	spans []fragSpan
	idx   int // the span at or after the last visited position
	done  int // spans before done are settled
	held  trace.MutexSet

	compact      bool   // finalize merges neighbouring runs (!Config.NoCompact)
	open, peak   int    // units entered and not yet finalized; high-water
	builderBytes uint64 // bytes held by the runs finalized so far
}

// fragSpan is one fragment in cursor order. unit is nil outside this
// pass; last marks the fragment whose passing finalizes unit, and cert
// that a voided certificate's dropped accesses go into unit first.
type fragSpan struct {
	begin, end uint64
	unit       *treeUnit
	held       trace.MutexSet
	last, cert bool
}

// newSlotCursor lays out the slot's fragments and materializes the units
// of the intervals this pass builds (in include and only, not
// quarantined). A unit's last span is its fragment with the largest end:
// fragments of one interval can share a begin (a zero-length fragment
// beside a full one), and only the end proves no later position lands in
// the unit. Excluded intervals cost one plain span per fragment.
func newSlotCursor(ivs []*interval, include map[uint64]bool, only map[*interval]bool, probe, compact bool) *slotCursor {
	c := &slotCursor{compact: compact}
	for _, iv := range ivs {
		included := (include == nil || include[iv.region.top.id]) &&
			(only == nil || only[iv]) && !iv.quarantined
		if !included {
			for _, f := range iv.frags {
				c.spans = append(c.spans, fragSpan{begin: f.begin, end: f.begin + f.size, held: f.held})
			}
			continue
		}
		iv.materializeUnits(probe)
		last := 0 // closing fragment of a single-unit interval
		for i, f := range iv.frags {
			if f.begin+f.size >= iv.frags[last].begin+iv.frags[last].size {
				last = i
			}
		}
		cu := certUnit(iv)
		for i, f := range iv.frags {
			sp := fragSpan{begin: f.begin, end: f.begin + f.size, unit: f.unit, held: f.held,
				last: iv.taskParent || i == last}
			sp.cert = sp.last && f.unit == cu
			c.spans = append(c.spans, sp)
		}
	}
	sort.Slice(c.spans, func(i, j int) bool { return c.spans[i].begin < c.spans[j].begin })
	return c
}

// at returns the tree unit owning logical position pos (nil when the
// position falls between fragments or outside the batch) plus whether the
// position lies inside any fragment. Positions are visited in
// nondecreasing order.
func (c *slotCursor) at(pos uint64) (*treeUnit, bool) {
	for c.idx < len(c.spans) && pos >= c.spans[c.idx].end {
		c.idx++
	}
	if c.idx >= len(c.spans) {
		return nil, false
	}
	sp := &c.spans[c.idx]
	if pos < sp.begin {
		return nil, false
	}
	if pos == sp.begin {
		c.held = sp.held // fragment entry: seed the running held set
	}
	return sp.unit, true
}

// settle finalizes the units whose last fragment the cursor passed since
// the previous call, and opens the unit of the span it now sits at. The
// decoder calls it once per block, which keeps at — inlined into the
// per-event loop — free of it; no access can reach a passed span, so the
// delay changes nothing but when the slab returns to the pool.
func (c *slotCursor) settle() {
	for ; c.done < c.idx; c.done++ {
		sp := &c.spans[c.done]
		c.enter(sp)
		if sp.last {
			c.close(sp)
		}
	}
	if c.idx < len(c.spans) {
		c.enter(&c.spans[c.idx])
	}
}

// enter opens the span's unit when the cursor first reaches one of its
// fragments.
func (c *slotCursor) enter(sp *fragSpan) {
	if u := sp.unit; u != nil && !u.entered {
		u.entered = true
		c.open++
		c.peak = max(c.peak, c.open)
	}
}

// close finalizes the unit whose last fragment sp is.
func (c *slotCursor) close(sp *fragSpan) {
	u := sp.unit
	if sp.cert {
		materializeCert(u.iv, u)
	}
	c.builderBytes += u.finalize(c.compact)
	if u.entered {
		c.open--
	}
}

// finish finalizes every remaining unit: those whose last fragment the
// cursor passed in the final block, those still open when the log ended,
// and those it never reached.
func (c *slotCursor) finish() {
	c.settle()
	for ; c.done < len(c.spans); c.done++ {
		if sp := &c.spans[c.done]; sp.last {
			c.close(sp)
		}
	}
}

func (a *Analyzer) buildSlotTrees(ctx context.Context, s *structure, slot int, pass logPass) error {
	// Only the intervals this pass builds get units finalized: an excluded
	// interval may hold runs resident from an earlier batch that are
	// already finalized.
	cur := newSlotCursor(s.bySlot[slot], pass.include, pass.only, a.cfg.ProbeEngine, !a.cfg.NoCompact)
	defer func() {
		cur.finish()
		a.cfg.Obs.Counter("core.run_builder_bytes").Add(cur.builderBytes)
		a.cfg.Obs.Gauge("core.open_units_peak").SetMax(int64(cur.peak))
	}()
	src, err := a.store.OpenLog(slot)
	if err != nil {
		// The whole log is gone: its intervals are quarantined and the
		// analysis goes on with everything else.
		d := newSlotDamage()
		d.truncated = true
		d.framing[0] = trace.SalvageEntry{File: fmt.Sprintf("log %d", slot), Block: -1,
			Cause: fmt.Sprintf("unreadable (%v)", err)}
		a.mergeDamage(slot, d)
		return nil
	}
	lr := trace.NewLogReader(src)
	defer lr.Close()
	file := fmt.Sprintf("log %d", slot)
	found := newSlotDamage()
	// In batched mode (and for the live and distributed interval sets) a
	// block whose logical span intersects none of the pass's fragments
	// holds only data this pass would decode and throw away; skip its
	// compressed payload entirely. Blocks arrive in ascending logical
	// order, so one cursor over the wanted spans suffices. A skipped
	// payload is not integrity-checked here: it holds no data of this
	// pass, and the pass that builds from it checks it. The full
	// single-pass analysis decodes everything. The live finalize pass is
	// the last to read the logs: it skips only what a live round already
	// decoded, so every other block is checked and its strays counted.
	var skipBlock func(start, rawLen uint64) bool
	switch {
	case pass.decoded != nil:
		done, i := pass.decoded[slot], 0
		skipBlock = func(start, rawLen uint64) bool {
			for i < len(done) && done[i][1] <= start {
				i++
			}
			return i < len(done) && done[i][0] <= start && start+rawLen <= done[i][1]
		}
	case pass.include != nil || pass.only != nil:
		var wanted [][2]uint64
		for _, sp := range cur.spans {
			if sp.unit != nil {
				wanted = append(wanted, [2]uint64{sp.begin, sp.end})
			}
		}
		wIdx := 0
		skipBlock = func(start, rawLen uint64) bool {
			end := start + rawLen
			for wIdx < len(wanted) && wanted[wIdx][1] <= start {
				wIdx++
			}
			return wIdx >= len(wanted) || wanted[wIdx][0] >= end
		}
	}
	p := startBlockPipeline(ctx, lr, skipBlock, slot, a.blockBufs)
	defer p.release(a.blockBufs)
	var dec trace.Decoder
	var ev trace.Event
	var events uint64
	maxDepth := 0
	for b := range p.blocks {
		maxDepth = max(maxDepth, len(p.blocks)+1)
		dec.Reset(b.raw)
		var stray uint64
		for dec.More() {
			pos := b.start + uint64(dec.Pos())
			if err := dec.Next(&ev); err != nil {
				// The block passed its CRC but the event stream inside is
				// malformed: write the rest of the block off as lost and
				// resync at the next block boundary.
				end := b.start + uint64(len(b.raw))
				found.lost[pos] = trace.SalvageEntry{File: file, Block: -1, LogicalStart: pos, LogicalEnd: end,
					Cause: fmt.Sprintf("undecodable events (%v)", err)}
				break
			}
			events++
			unit, inside := cur.at(pos)
			switch ev.Kind {
			case trace.KindMutexAcquire:
				cur.held = cur.held.With(ev.Mutex)
			case trace.KindMutexRelease:
				cur.held = cur.held.Without(ev.Mutex)
			case trace.KindAccess:
				if !inside {
					// No fragment owns the access — its interval's meta
					// record was lost, or meta and log disagree. It has no
					// home: drop it, and count it as damage.
					stray++
					continue
				}
				if unit == nil {
					continue // outside this batch: decode but do not build
				}
				unit.insert(itree.Access{
					Addr:    ev.Addr,
					Width:   uint64(ev.Size),
					Write:   ev.Write,
					Atomic:  ev.Atomic,
					PC:      ev.PC,
					Mutexes: cur.held,
				})
			}
		}
		if stray > 0 {
			found.stray[b.start] = stray
		}
		cur.settle()
		p.free <- b.raw
	}
	if err := <-p.err; err != nil {
		return err
	}
	// End of stream: the reader goroutine is done, so the LogReader's
	// totals and damage report are stable.
	srep := lr.Salvage()
	found.logEnd = lr.RawBytes()
	found.truncated = srep.Truncated
	for _, e := range srep.Entries {
		e.File = file
		if e.LogicalEnd > e.LogicalStart {
			found.lost[e.LogicalStart] = e
		} else {
			found.framing[e.Offset] = e
		}
	}
	a.mergeDamage(slot, found)
	a.blocksDecoded.add(lr.Blocks() - lr.BlocksSkipped())
	if m := a.cfg.Obs; m != nil {
		if pass.events {
			m.Counter("trace.events").Add(events)
		}
		if pass.volume {
			m.Counter("trace.blocks").Add(lr.Blocks())
			m.Counter("trace.raw_bytes").Add(lr.RawBytes())
			m.Counter("trace.compressed_bytes").Add(lr.CompressedBytes())
		}
		// Skip totals accumulate across every batch: they measure
		// the decompression work the fast path avoided, which is
		// exactly the cost batched re-streaming would otherwise
		// multiply.
		m.Counter("trace.blocks_skipped").Add(lr.BlocksSkipped())
		m.Counter("trace.skipped_bytes").Add(lr.SkippedBytes())
		m.Gauge("trace.decode_pipeline_depth").SetMax(int64(maxDepth))
	}
	return nil
}

// blockPipeline is one slot's two-stage block stream: a reader goroutine
// pulls blocks off the log (seek, CRC, decompress) straight into one of
// exactly two buffers while the caller decodes the other, and the caller
// hands each decoded buffer back through free. At most one block is read
// ahead, so a slot's staging memory is two blocks whatever the log's
// length, and blocks reach the decoder in log order — the cursor and the
// running mutex set see positions in exactly the sequential order.
type blockPipeline struct {
	blocks chan logBlock // filled buffers in log order; closed when the reader exits
	free   chan []byte   // buffers the reader may fill; holds both once drained
	err    chan error    // the reader's outcome: nil at a clean end of log
	cancel context.CancelFunc
}

// logBlock is one decompressed block: the logical position of its first
// event byte and its payload, which is one of the pipeline's two buffers.
type logBlock struct {
	start uint64
	raw   []byte
}

// startBlockPipeline takes two buffers from stash and starts the reader
// goroutine over lr. The caller ranges over blocks, returns every buffer
// to free, and then reads err, so the reader has exited before the caller
// may close lr; release then hands both buffers back to stash. Damage the
// reader steps over stays in lr's report: it never stops the stream.
func startBlockPipeline(ctx context.Context, lr *trace.LogReader, skip func(start, rawLen uint64) bool, slot int, stash <-chan []byte) *blockPipeline {
	ctx, cancel := context.WithCancel(ctx)
	p := &blockPipeline{
		// Both channels hold every buffer there is, so no send blocks.
		blocks: make(chan logBlock, 2),
		free:   make(chan []byte, 2),
		err:    make(chan error, 1),
		cancel: cancel,
	}
	p.free <- <-stash
	p.free <- <-stash
	go func() {
		defer close(p.blocks)
		for {
			var buf []byte
			select {
			case buf = <-p.free:
			case <-ctx.Done():
				p.err <- ctx.Err()
				return
			}
			if err := ctx.Err(); err != nil {
				p.free <- buf
				p.err <- err
				return
			}
			start, raw, err := lr.NextInto(buf, skip)
			for errors.Is(err, trace.ErrTraceDamaged) {
				start, raw, err = lr.NextInto(buf, skip) // recorded; read on
			}
			if err != nil {
				p.free <- buf
				if err == io.EOF {
					err = nil
				} else {
					err = fmt.Errorf("core: read log %d: %w", slot, err)
				}
				p.err <- err
				return
			}
			p.blocks <- logBlock{start: start, raw: raw}
		}
	}()
	return p
}

// release hands the pipeline's two buffers back to stash. The reader has
// exited by then — the caller read err — so both are in free;
// only a panic in the decoder leaves one in flight, and release must not
// block the unwinding on it: the stash gets a fresh slot instead.
func (p *blockPipeline) release(stash chan<- []byte) {
	p.cancel()
	for range 2 {
		select {
		case buf := <-p.free:
			stash <- buf
		default:
			stash <- nil
		}
	}
}

// enumeratePairs lists every pair of concurrent tree units. Same-region
// intervals pair within a barrier id; cross-region concurrency only arises
// inside one top-level region's subtree (top-level regions are forked in
// program order by the initial thread), which keeps enumeration linear for
// the common flat codes. Intervals that spawn tasks contribute one unit
// per fragment, filtered against the tasks' concurrency windows.
//
// skipEmpty drops pairs where either unit holds no accesses — the
// in-process path, which enumerates after building runs. The distributed
// planner enumerates from structure alone (no runs exist yet) and passes
// false, accepting some empty work units in exchange for never touching
// the logs on the coordinator.
//
// prefilter additionally drops pairs whose unit summaries prove no node
// pair can race (see summariesMayRace); the count of pairs so dropped is
// returned for Stats.PairsPrefiltered. It only takes effect on units with
// finalized builder summaries, so the probe-engine and planner paths are
// naturally unaffected.
//
// Pairs whose two units are covered by the same trusted CLEAN loop
// certificate are retired before any other consideration — the runtime
// proved their accesses disjoint before dropping them, and the analyzer
// re-verified the certificate's structural position (cert.go). The count
// of distinct pairs so retired is the third return, for
// Stats.PairsRetiredStatic.
//
// planning switches the retirement residue check from node counts to
// fragment byte volumes: the distributed planner enumerates before any
// tree exists, where nodeCount() is trivially zero for every unit and
// would retire cert-covered pairs that still hold recorded accesses
// outside the certified loop — pairs the in-process analyzer compares.
// Byte volume comes from the meta files alone, so the planner retires
// exactly the pair classes whose accesses were all dropped at collection.
func enumeratePairs(s *structure, include map[uint64]bool, skipEmpty, prefilter, planning bool) ([][2]*treeUnit, uint64, uint64) {
	ix := indexIntervals(s, include)
	// Pre-size from the per-group unit counts: same-region pairing
	// dominates, contributing Σ_{i<j} u_i·u_j = (U² − Σu_i²)/2 candidates
	// per group. Cross-region pairs come on top; the maps simply grow then.
	est := 0
	for _, g := range ix.groups {
		sumU, sumSq := 0, 0
		for _, iv := range g {
			u := len(iv.units)
			sumU += u
			sumSq += u * u
		}
		est += (sumU*sumU - sumSq) / 2
	}
	ps := &pairSet{skipEmpty: skipEmpty, prefilter: prefilter, planning: planning,
		pairs: make([][2]*treeUnit, 0, est), seen: make(map[[2]*treeUnit]struct{}, est)}
	ix.walk(ps.addAll, ps.addAll, ps.addWindow)
	sortPairs(ps.pairs)
	return ps.pairs, ps.prefiltered, ps.retired
}

// pairSet collects the distinct concurrent unit pairs enumeratePairs
// offers it, with the retirement, empty-unit and pre-filter decisions.
type pairSet struct {
	skipEmpty, prefilter, planning bool

	seen                 map[[2]*treeUnit]struct{}
	pairs                [][2]*treeUnit
	prefiltered, retired uint64
}

// add offers one unit pair.
func (ps *pairSet) add(x, y *treeUnit) {
	// Certificate retirement first, so the retired count reflects every
	// pair class the static proof killed — including the ones the
	// empty-unit skip would have caught for free (a trusted clean
	// certificate's units are empty precisely because collection
	// dropped everything). The nodeCount guard is defense in depth: if
	// a unit somehow holds content, the pair falls through to a real
	// comparison instead of being skipped on the proof alone.
	emptyX, emptyY := x.nodeCount() == 0, y.nodeCount() == 0
	if ps.planning {
		emptyX, emptyY = unitBytes(x) == 0, unitBytes(y) == 0
	}
	k := [2]*treeUnit{x, y}
	if lessUnit(y.iv.key, y.cut, x.iv.key, x.cut) {
		k = [2]*treeUnit{y, x}
	}
	if ci := x.iv.cert; ci != nil && ci.retire && y.iv.cert == ci &&
		emptyX && emptyY {
		before := len(ps.seen)
		ps.seen[k] = struct{}{}
		if len(ps.seen) != before {
			ps.retired++
		}
		return
	}
	if ps.skipEmpty && (emptyX || emptyY) {
		return
	}
	// One map operation per candidate: the insert's effect on len
	// doubles as the membership probe. Pre-filtered pairs enter the
	// map too, so each distinct dropped pair counts exactly once.
	before := len(ps.seen)
	ps.seen[k] = struct{}{}
	if len(ps.seen) == before {
		return
	}
	if ps.prefilter && x.hasSum && y.hasSum && !summariesMayRace(&x.sum, &y.sum) {
		ps.prefiltered++
		return
	}
	ps.pairs = append(ps.pairs, k)
}

// addAll offers every unit of x against every unit of y.
func (ps *pairSet) addAll(x, y *interval) {
	for _, ux := range x.units {
		for _, uy := range y.units {
			ps.add(ux, uy)
		}
	}
}

// addWindow offers x's units with cuts in [lo, hi) against all of y's.
func (ps *pairSet) addWindow(x *interval, lo, hi uint64, y *interval) {
	for _, ux := range x.units {
		if ux.cut < lo || ux.cut >= hi {
			continue
		}
		for _, uy := range y.units {
			ps.add(ux, uy)
		}
	}
}

// lessUnit orders units by interval key, then fragment cut: the canonical
// orientation of a pair.
func lessUnit(a trace.IntervalKey, ca uint64, b trace.IntervalKey, cb uint64) bool {
	return lessKey(a, b) || (a == b && ca < cb)
}

// sortPairs puts pairs in canonical order: schedulePairs sorts by
// descending cost with a stable sort, so this is the deterministic
// tie-break.
func sortPairs(pairs [][2]*treeUnit) {
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a[0].iv.key != b[0].iv.key {
			return lessKey(a[0].iv.key, b[0].iv.key)
		}
		if a[0].cut != b[0].cut {
			return a[0].cut < b[0].cut
		}
		if a[1].iv.key != b[1].iv.key {
			return lessKey(a[1].iv.key, b[1].iv.key)
		}
		return a[1].cut < b[1].cut
	})
}

// intervalIndex holds the analyzable intervals (not quarantined, inside
// the batch) in the two views pairing needs: barrier groups, and, for the
// regions sharing a top-level subtree with another, intervals by region.
type intervalIndex struct {
	s        *structure
	include  map[uint64]bool
	groups   [][]*interval // one per (pid, bid), each in tid order
	byRegion map[uint64][]*interval
}

func indexIntervals(s *structure, include map[uint64]bool) *intervalIndex {
	ix := &intervalIndex{s: s, include: include, byRegion: make(map[uint64][]*interval)}
	ivs := make([]*interval, 0, len(s.intervals))
	for _, iv := range s.intervals {
		if iv.quarantined {
			continue // the interval's data did not survive
		}
		if include != nil && !include[iv.region.top.id] {
			continue
		}
		ivs = append(ivs, iv)
	}
	slices.SortFunc(ivs, func(a, b *interval) int {
		return cmp.Or(cmp.Compare(a.key.PID, b.key.PID), cmp.Compare(a.key.BID, b.key.BID), cmp.Compare(a.key.TID, b.key.TID))
	})
	for lo := 0; lo < len(ivs); {
		hi := lo + 1
		for hi < len(ivs) && ivs[hi].key.PID == ivs[lo].key.PID && ivs[hi].key.BID == ivs[lo].key.BID {
			hi++
		}
		ix.groups = append(ix.groups, ivs[lo:hi:hi])
		lo = hi
	}
	for _, iv := range ivs {
		if len(s.topGroups[iv.region.top.id]) > 1 {
			ix.byRegion[iv.key.PID] = append(ix.byRegion[iv.key.PID], iv)
		}
	}
	return ix
}

// walk visits every pair of concurrent intervals: same calls each
// same-group pair exactly once; cross and crossWindow are the
// cross-region relations, which may repeat a pair — crossWindow pairs
// only x's units with cuts in [lo, hi) against all of y's.
func (ix *intervalIndex) walk(same, cross func(x, y *interval), crossWindow func(x *interval, lo, hi uint64, y *interval)) {
	for _, g := range ix.groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				same(g[i], g[j])
			}
		}
	}
	// Cross-region pairs within each top-level subtree.
	for topID, regions := range ix.s.topGroups {
		if len(regions) < 2 {
			continue
		}
		if ix.include != nil && !ix.include[topID] {
			continue
		}
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				crossRegionPairs(regions[i], regions[j], ix.byRegion, cross, crossWindow)
			}
		}
	}
}

// summariesMayRace decides from two unit summaries alone whether any node
// pair across the units could be reported as a race. Each clause is the
// unit-level aggregate of a per-node filter the comparison engine applies
// anyway — a race needs at least one write, not both sides atomic, no
// commonly held mutex, and overlapping addresses — so a false return
// proves every node pair would be rejected and the comparison can be
// skipped without changing the race set.
func summariesMayRace(a, b *itree.Summary) bool {
	switch {
	case !a.AnyWrite && !b.AnyWrite:
		return false // read-only on both sides
	case a.AllAtomic && b.AllAtomic:
		return false // every cross pair is atomic-atomic
	case a.CommonMutexes.Intersects(b.CommonMutexes):
		return false // a mutex held across every access of both units
	case a.High < b.Low || b.High < a.Low:
		return false // disjoint bounding boxes
	}
	return true
}

func lessKey(a, b trace.IntervalKey) bool {
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	if a.BID != b.BID {
		return a.BID < b.BID
	}
	return a.TID < b.TID
}

// crossRegionPairs emits the concurrent unit pairs across two distinct
// regions of the same top-level subtree. The chains' divergence point
// decides concurrency uniformly except in two cases: sibling subtrees
// hanging off the same interval compare their spawn windows (tasks may
// overlap; sync regions are serialized), and an ancestor's own interval
// races with a descendant task subtree exactly within the task's
// [forkCut, waitCut) window.
func crossRegionPairs(r1, r2 *region, byRegion map[uint64][]*interval,
	add func(x, y *interval), addWindow func(x *interval, lo, hi uint64, y *interval)) {
	f1, f2 := r1.frames, r2.frames
	n := min(len(f1), len(f2))
	for i := 0; i < n; i++ {
		x, y := f1[i], f2[i]
		if x == y {
			continue
		}
		concurrent := false
		switch {
		case x.tid != y.tid:
			concurrent = x.bid == y.bid
		case x.bid != y.bid:
			concurrent = false
		default:
			// Sibling subtrees under one interval: window overlap.
			concurrent = windowsOverlap(x, y)
		}
		if concurrent {
			for _, ix := range byRegion[r1.id] {
				for _, iy := range byRegion[r2.id] {
					add(ix, iy)
				}
			}
		}
		return
	}
	// Ancestor relationship: wlog r1 is the ancestor (shorter chain).
	anc, desc := r1, r2
	if len(f1) > len(f2) {
		anc, desc = r2, r1
	}
	fork := desc.frames[len(anc.frames)]
	for _, x := range byRegion[anc.id] {
		if x.key.BID != fork.bid {
			continue // barrier-separated from the subtree's spawn interval
		}
		if x.key.TID != fork.tid {
			// Another thread's interval of the same episode: fully
			// concurrent with the subtree.
			for _, y := range byRegion[desc.id] {
				add(x, y)
			}
			continue
		}
		if fork.async {
			// The spawner's own interval: concurrent exactly within the
			// task's window.
			for _, y := range byRegion[desc.id] {
				addWindow(x, fork.forkCut, fork.waitCut, y)
			}
		}
	}
}

func side(n *itree.Run, pcs *pcreg.Table) report.Side {
	return report.Side{PC: n.PC, Source: pcs.Name(n.PC), Write: n.Write, Atomic: n.Atomic}
}

// atomicCounter counts analysis effort across comparison workers.
type atomicCounter struct{ atomic.Uint64 }

func (c *atomicCounter) add(n uint64) { c.Add(n) }

func (c *atomicCounter) load() uint64 { return c.Load() }
