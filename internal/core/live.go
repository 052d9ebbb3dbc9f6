package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"time"

	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/trace"
)

// Live analysis support: the incremental half of the streaming analyzer
// (internal/stream). A LiveAnalyzer accepts rounds of sealed barrier
// groups while the traced program is still running, builds their
// intervals, compares their same-group pairs immediately with the
// persistent sweep engine, and records what each round settled: the fate
// of every pair it decided (compared or pre-filtered) and, for every
// interval it built, the node and access counts of its units. Finalize
// assembles the finished structure from the tailed records, builds only
// what no round settled — the intervals no round built, and both
// intervals of every pair no round decided — and compares the undecided
// pairs. Every pair's fate and every interval's counts come from exactly
// one of the two, so the race set and the structural stats are those of a
// post-mortem analysis, and a log block a round decoded is not decoded
// again.
//
// Only same-(pid, bid) pairs are compared live. Cross-region pairs depend
// on task windows (the taskwaits aux table, written only when the
// collector closes) and on frame chains that later arrivals can extend, so
// they are deferred to Finalize — deferral never loses a race, it only
// delays its report to the end of the run.

// SlotRecords is one slot's accumulated decoded meta stream — what the
// streaming analyzer's tailing readers have delivered so far. It mirrors
// the records buildStructure loads from a finished store. Err is what a
// post-mortem read of the stream would report beyond these records (a
// torn tail as a *trace.SalvageReport, or the error that kept the file
// from being opened); only Finalize reads it.
type SlotRecords struct {
	Slot  int
	Metas []trace.Meta
	Certs []trace.LoopCert
	Err   error
}

// IntervalGroup names one barrier episode of one region instance: the
// same-region concurrency group of intervals sharing (pid, bid). A group
// is sealed once every member interval's records and log data are durable;
// sealed groups are the unit of live analysis.
type IntervalGroup struct {
	PID, BID uint64
}

// StepStats summarizes one live analysis round, for the stream.* metrics.
type StepStats struct {
	Pairs       int    // unit pairs compared this round
	Prefiltered uint64 // pairs dropped by unit-summary prefilter
	Retired     uint64 // pairs deferred to Finalize's certificate retirement
	TreeNodes   int    // run nodes materialized for this round's groups
	Accesses    uint64 // accesses summarized for this round's groups
}

// pairKey names a unit pair across structure rebuilds: tree units are
// recreated from scratch every round, so identity must live in the stable
// coordinates (interval key, fragment cut) instead of pointers. Pairs are
// canonicalized by enumeration order before keying.
type pairKey struct {
	a, b   trace.IntervalKey
	ca, cb uint64
}

func pairKeyOf(p [2]*treeUnit) pairKey {
	return pairKey{a: p[0].iv.key, b: p[1].iv.key, ca: p[0].cut, cb: p[1].cut}
}

// LiveAnalyzer holds the persistent comparison state of one streamed run:
// the engine (solver memo, confirmed race sites), the growing report, the
// block buffers every round streams the logs through, and what the rounds
// settled. It is not safe for concurrent use; the streaming analyzer
// serializes rounds.
type LiveAnalyzer struct {
	cfg   Config
	pcs   *pcreg.Table
	eng   *compareEngine
	rep   *report.Report
	stash chan []byte

	// decided holds every pair a round decided: true when it was
	// compared, false when the summary pre-filter dropped it.
	decided map[pairKey]bool
	// built holds what a round recorded about each interval it built.
	built map[trace.IntervalKey]*liveBuild
}

// liveBuild is what a live round's build of one interval leaves behind:
// enough to account for the interval, and to decide its pairs with other
// such intervals, without building it again. The shape fields say which
// build the counts describe; Finalize trusts them only when the finished
// structure would build the interval the same way.
type liveBuild struct {
	frags      int    // fragments built from
	bytes      uint64 // their data volume
	taskParent bool   // one unit per fragment
	certDrops  bool   // dropped accesses were rematerialized into a unit
	units      []unitCounts
}

// unitCounts are one built unit's cut and size.
type unitCounts struct {
	cut      uint64
	nodes    int
	accesses uint64
}

func newLiveBuild(iv *interval) *liveBuild {
	b := &liveBuild{frags: len(iv.frags), bytes: fragBytes(iv), taskParent: iv.taskParent,
		certDrops: certDrops(iv), units: make([]unitCounts, len(iv.units))}
	for i, u := range iv.units {
		b.units[i] = unitCounts{cut: u.cut, nodes: u.nodeCount(), accesses: u.accesses()}
	}
	return b
}

// matches reports whether building iv as the finished structure shapes it
// would give the units b describes: same fragments, same unit layout, same
// certificate treatment.
func (b *liveBuild) matches(iv *interval) bool {
	return b.frags == len(iv.frags) && b.bytes == fragBytes(iv) &&
		b.taskParent == iv.taskParent && b.certDrops == certDrops(iv)
}

func fragBytes(iv *interval) uint64 {
	var n uint64
	for _, f := range iv.frags {
		n += f.size
	}
	return n
}

// NewLive returns a live analyzer. cfg.PCs, when nil, starts as an empty
// table — races found live carry placeholder "pc(N)" sites until Finalize
// installs the table the collector persisted at Close.
func NewLive(cfg Config) *LiveAnalyzer {
	pcs := cfg.PCs
	if pcs == nil {
		pcs = pcreg.NewTable()
	}
	rep := report.New()
	return &LiveAnalyzer{
		cfg:     cfg,
		pcs:     pcs,
		eng:     newCompareEngine(cfg, pcs, rep),
		rep:     rep,
		stash:   newBlockStash(EffectiveWorkers(cfg.Workers)),
		decided: make(map[pairKey]bool),
		built:   make(map[trace.IntervalKey]*liveBuild),
	}
}

// analyzer returns an Analyzer over store that streams through the run's
// block buffers.
func (l *LiveAnalyzer) analyzer(store trace.Store) *Analyzer {
	a := New(store, l.cfg)
	a.blockBufs = l.stash
	return a
}

// Report returns the growing report. Races accumulate as rounds complete;
// Report.Races and Report.String are safe to call while a Step runs only
// if the caller serializes against Step itself (they lock the report, but
// a mid-round snapshot would be arbitrary).
func (l *LiveAnalyzer) Report() *report.Report { return l.rep }

// Step analyzes the given freshly sealed groups: it rebuilds the
// concurrency structure from the accumulated records, streams only the
// sealed intervals' log data out of store, and compares their same-group
// unit pairs into the persistent report. The caller guarantees that every
// record's ancestor chain is present in inputs, that each group in groups
// is sealed (no further records or data can arrive for it), and that store
// serves only durable committed bytes covering the sealed intervals'
// fragments. Each group must be passed to exactly one Step.
//
// A live round cannot quarantine: the tailing layer already tells torn
// tails from damage, so any damage the round finds is real corruption,
// returned as a *trace.SalvageReport error for the caller to fall back to
// a post-mortem analysis.
func (l *LiveAnalyzer) Step(ctx context.Context, store trace.Store, inputs []SlotRecords, groups map[IntervalGroup]bool) (StepStats, error) {
	var st StepStats
	if len(groups) == 0 {
		return st, nil
	}
	s := newStructure()
	ins := make([]slotRecords, len(inputs))
	for i, in := range inputs {
		ins[i] = slotRecords{slot: in.Slot, metas: in.Metas, certs: in.Certs}
	}
	s.assemble(ins, nil)
	only := make(map[*interval]bool)
	for _, iv := range s.intervals {
		if groups[IntervalGroup{PID: iv.key.PID, BID: iv.key.BID}] {
			only[iv] = true
		}
	}
	if len(only) == 0 {
		return st, nil
	}
	a := l.analyzer(store)
	workers := EffectiveWorkers(l.cfg.Workers)
	if err := a.buildTrees(ctx, s, workers, logPass{only: only, events: true}); err != nil {
		return st, err
	}
	a.applyQuarantine(s, only)
	if err := a.damage(s).Err(); err != nil {
		return st, err
	}
	for iv := range only {
		if iv.quarantined {
			continue
		}
		b := newLiveBuild(iv)
		l.built[iv.key] = b
		for _, u := range b.units {
			st.TreeNodes += u.nodes
			st.Accesses += u.accesses
		}
	}
	pairs := l.sameGroupPairs(s, groups, &st)
	st.Pairs = len(pairs)
	schedulePairs(pairs)
	if err := comparePairs(ctx, l.eng, workers, pairs); err != nil {
		return st, err
	}
	// The round's structure and trees are garbage once Step returns: only
	// the decided pairs, the per-interval counts, the engine, and the
	// report persist. That is the frontier bound — sealed groups never
	// stay resident.
	return st, nil
}

// sameGroupPairs enumerates the same-(pid, bid) unit pairs of the sealed
// groups with the same certificate-retirement, empty-unit, and summary
// prefilter decisions enumeratePairs applies, and records every decided
// pair (compared or prefiltered) in decided so Finalize neither compares
// nor rebuilds it. Retired pairs are NOT recorded: certificate trust is
// re-derived from the full structure at finalize, which either retires
// them again (they never reach the engine) or rematerializes their
// dropped accesses, rebuilds their units and compares them — both end
// states match the post-mortem decision exactly.
func (l *LiveAnalyzer) sameGroupPairs(s *structure, groups map[IntervalGroup]bool, st *StepStats) [][2]*treeUnit {
	byGroup := make(map[IntervalGroup][]*interval)
	for _, iv := range s.intervals {
		g := IntervalGroup{PID: iv.key.PID, BID: iv.key.BID}
		if groups[g] {
			byGroup[g] = append(byGroup[g], iv)
		}
	}
	var pairs [][2]*treeUnit
	addUnits := func(x, y *treeUnit) {
		if lessUnit(y.iv.key, y.cut, x.iv.key, x.cut) {
			x, y = y, x
		}
		k := [2]*treeUnit{x, y}
		if ci := x.iv.cert; ci != nil && ci.retire && y.iv.cert == ci &&
			x.nodeCount() == 0 && y.nodeCount() == 0 {
			st.Retired++
			return
		}
		if x.nodeCount() == 0 || y.nodeCount() == 0 {
			return
		}
		if !l.cfg.NoPrefilter && x.hasSum && y.hasSum && !summariesMayRace(&x.sum, &y.sum) {
			st.Prefiltered++
			l.decided[pairKeyOf(k)] = false
			return
		}
		l.decided[pairKeyOf(k)] = true
		pairs = append(pairs, k)
	}
	for _, g := range byGroup {
		sort.Slice(g, func(i, j int) bool { return g[i].key.TID < g[j].key.TID })
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				for _, ux := range g[i].units {
					for _, uy := range g[j].units {
						addUnits(ux, uy)
					}
				}
			}
		}
	}
	sortPairs(pairs)
	return pairs
}

// Finalize completes the analysis over the finished trace. inputs are
// every slot's records as the tails delivered them, with each tail's
// verdict on what follows them. Finalize reloads the persisted pc table
// (resymbolizing the races reported live), assembles the finished
// structure from inputs and the taskwaits table, and builds only what no
// round settled: the intervals no round built and both intervals of every
// pair no round decided. It walks every slot's log to its end, so damage
// and truncation are seen, but skips each block lying wholly inside
// fragments a round decoded. It then compares the undecided pairs into
// the same engine and report, and accounts for the settled ones from what
// the rounds recorded. The returned report therefore holds exactly the
// race set and stats a pure post-mortem AnalyzeContext over the same store
// would produce.
func (l *LiveAnalyzer) Finalize(ctx context.Context, store trace.Store, inputs []SlotRecords) (*report.Report, error) {
	m := l.cfg.Obs
	start := time.Now()
	a := l.analyzer(store)
	pcs, pcDamage := a.loadPCs()
	l.pcs = pcs
	l.eng.setPCs(pcs)
	l.rep.Resymbolize(pcs.Name)

	ins := make([]slotRecords, len(inputs))
	for i, in := range inputs {
		ins[i] = slotRecords{slot: in.Slot, metas: in.Metas, certs: in.Certs, err: in.Err}
	}
	s := recoverStructure(store, ins)
	s.damage = slices.Concat(pcDamage, s.damage)
	m.Timer("core.phase.structure").Observe(time.Since(start))
	rep := l.rep
	rep.Stats.Intervals = len(s.intervals)
	rep.Stats.Regions = len(s.regions)
	m.Counter("core.intervals").Add(uint64(len(s.intervals)))
	m.Counter("core.regions").Add(uint64(len(s.regions)))

	ix := indexIntervals(s, nil)
	build := l.unsettled(s, ix)
	phase := time.Now()
	pass := logPass{only: build, decoded: liveSpans(s, build), events: true, volume: true}
	if err := a.buildTrees(ctx, s, EffectiveWorkers(l.cfg.Workers), pass); err != nil {
		return nil, err
	}
	m.Timer("core.phase.trees").Observe(time.Since(phase))
	a.applyQuarantine(s, nil)
	m.Counter("stream.finalize_blocks").Add(a.blocksDecoded.load())

	pairs := l.finalPairs(ix, rep)
	var units uint64
	for _, iv := range s.intervals {
		switch {
		case iv.quarantined:
		case iv.units != nil:
			units += uint64(len(iv.units))
			for _, u := range iv.units {
				rep.Stats.TreeNodes += u.nodeCount()
				rep.Stats.Accesses += u.accesses()
			}
		case iv.live != nil:
			for _, u := range iv.live.units {
				rep.Stats.TreeNodes += u.nodes
				rep.Stats.Accesses += u.accesses
			}
		}
	}
	m.Counter("stream.finalize_units").Add(units)
	m.Counter("core.batches").Inc()
	m.Counter("core.tree_nodes").Add(uint64(rep.Stats.TreeNodes))
	m.Gauge("core.tree_nodes_peak").SetMax(int64(rep.Stats.TreeNodes))
	phase = time.Now()
	schedulePairs(pairs)
	if err := comparePairs(ctx, l.eng, EffectiveWorkers(l.cfg.Workers), pairs); err != nil {
		return nil, err
	}
	m.Timer("core.phase.compare").Observe(time.Since(phase))
	return rep, a.finish(s, l.eng, rep, start)
}

// unsettled attaches to every interval the live build that still
// describes it (interval.live), and returns the intervals Finalize must
// build: every analyzable interval no round built, and both intervals of
// every concurrent pair with a unit pair no round decided.
func (l *LiveAnalyzer) unsettled(s *structure, ix *intervalIndex) map[*interval]bool {
	build := make(map[*interval]bool)
	for _, iv := range s.intervals {
		if b := l.built[iv.key]; b != nil && b.matches(iv) {
			iv.live = b
		} else if !iv.quarantined {
			build[iv] = true
		}
	}
	mark := func(x *interval, w window, y *interval) {
		if build[x] && build[y] {
			return
		}
		if x.live == nil || y.live == nil || l.undecided(x, w, y) {
			build[x], build[y] = true, true
		}
	}
	all := func(x, y *interval) { mark(x, window{all: true}, y) }
	ix.walk(all, all, func(x *interval, lo, hi uint64, y *interval) {
		mark(x, window{lo: lo, hi: hi}, y)
	})
	return build
}

// window selects the units of a pair relation's first interval: all of
// them, or those whose cut lies in [lo, hi).
type window struct {
	lo, hi uint64
	all    bool
}

func (w window) has(cut uint64) bool { return w.all || (w.lo <= cut && cut < w.hi) }

// pairFate is what became of a unit pair whose two units rounds built.
type pairFate int

const (
	fateUndecided   pairFate = iota // no round decided it: it must be compared
	fateEmpty                       // a unit holds no accesses
	fateRetired                     // both units under one trusted certificate
	fateCompared                    // a round compared it
	fatePrefiltered                 // a round's summary pre-filter dropped it
)

// fate decides the pair (ux of x, uy of y) from the rounds' records, with
// the retirement, empty-unit and pre-filter rules pairSet.add applies,
// and returns it with the pair's key.
func (l *LiveAnalyzer) fate(x *interval, ux unitCounts, y *interval, uy unitCounts) (pairFate, pairKey) {
	k := pairKey{a: x.key, b: y.key, ca: ux.cut, cb: uy.cut}
	if lessUnit(y.key, uy.cut, x.key, ux.cut) {
		k = pairKey{a: y.key, b: x.key, ca: uy.cut, cb: ux.cut}
	}
	if ci := x.cert; ci != nil && ci.retire && y.cert == ci && ux.nodes == 0 && uy.nodes == 0 {
		return fateRetired, k
	}
	if ux.nodes == 0 || uy.nodes == 0 {
		return fateEmpty, k
	}
	c, ok := l.decided[k]
	switch {
	case !ok:
		return fateUndecided, k
	case c:
		return fateCompared, k
	}
	return fatePrefiltered, k
}

// undecided reports whether any unit pair of the relation is undecided.
func (l *LiveAnalyzer) undecided(x *interval, w window, y *interval) bool {
	for _, ux := range x.live.units {
		if !w.has(ux.cut) {
			continue
		}
		for _, uy := range y.live.units {
			if f, _ := l.fate(x, ux, y, uy); f == fateUndecided {
				return true
			}
		}
	}
	return false
}

// finalPairs walks the concurrent pairs once more, after the build has
// quarantined what it found damaged, folds every pair into the stats as a
// post-mortem enumeration counts it, and returns the pairs left to
// compare. A pair of two units built here goes through the ordinary
// enumeration and is compared unless a round decided it; any other pair
// was settled by the rounds (unsettled built both sides of every
// undecided one) and is counted from their records.
func (l *LiveAnalyzer) finalPairs(ix *intervalIndex, rep *report.Report) [][2]*treeUnit {
	ps := &pairSet{skipEmpty: true, prefilter: !l.cfg.NoPrefilter, seen: make(map[[2]*treeUnit]struct{})}
	var nCompared int
	var nPrefiltered, nRetired uint64
	var repeats map[pairKey]struct{} // cross-region relations may repeat a pair
	settle := func(x *interval, w window, y *interval, cross bool) {
		if x.quarantined || y.quarantined {
			return
		}
		if x.units != nil && y.units != nil {
			if w.all {
				ps.addAll(x, y)
			} else {
				ps.addWindow(x, w.lo, w.hi, y)
			}
			return
		}
		if x.live == nil || y.live == nil {
			return // cannot happen: unsettled builds every interval without a live build
		}
		for _, ux := range x.live.units {
			if !w.has(ux.cut) {
				continue
			}
			for _, uy := range y.live.units {
				f, k := l.fate(x, ux, y, uy)
				if f == fateUndecided || f == fateEmpty {
					continue
				}
				if cross {
					if repeats == nil {
						repeats = make(map[pairKey]struct{})
					}
					if _, dup := repeats[k]; dup {
						continue
					}
					repeats[k] = struct{}{}
				}
				switch f {
				case fateRetired:
					nRetired++
				case fateCompared:
					nCompared++
				case fatePrefiltered:
					nPrefiltered++
				}
			}
		}
	}
	ix.walk(
		func(x, y *interval) { settle(x, window{all: true}, y, false) },
		func(x, y *interval) { settle(x, window{all: true}, y, true) },
		func(x *interval, lo, hi uint64, y *interval) { settle(x, window{lo: lo, hi: hi}, y, true) })
	sortPairs(ps.pairs)
	rep.Stats.IntervalPairs = len(ps.pairs) + nCompared
	rep.Stats.PairsPrefiltered = ps.prefiltered + nPrefiltered
	rep.Stats.PairsRetiredStatic = ps.retired + nRetired
	m := l.cfg.Obs
	m.Counter("core.interval_pairs").Add(uint64(rep.Stats.IntervalPairs))
	m.Counter("core.pairs_prefiltered").Add(rep.Stats.PairsPrefiltered)
	m.Counter("core.pairs_retired_static").Add(rep.Stats.PairsRetiredStatic)
	pairs := ps.pairs[:0]
	for _, p := range ps.pairs {
		if _, ok := l.decided[pairKeyOf(p)]; !ok {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// liveSpans lists, per slot, the log spans of the intervals rounds built
// and Finalize does not rebuild — bytes a round already decoded — sorted
// and merged where fragments abut. Every slot gets an entry, so the pass
// walks every log.
func liveSpans(s *structure, build map[*interval]bool) map[int][][2]uint64 {
	out := make(map[int][][2]uint64, len(s.bySlot))
	for slot, ivs := range s.bySlot {
		var spans [][2]uint64
		for _, iv := range ivs {
			if iv.live == nil || build[iv] {
				continue
			}
			for _, f := range iv.frags {
				if f.size > 0 {
					spans = append(spans, [2]uint64{f.begin, f.begin + f.size})
				}
			}
		}
		slices.SortFunc(spans, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
		merged := spans[:0]
		for _, sp := range spans {
			if n := len(merged); n > 0 && sp[0] <= merged[n-1][1] {
				merged[n-1][1] = max(merged[n-1][1], sp[1])
				continue
			}
			merged = append(merged, sp)
		}
		out[slot] = merged
	}
	return out
}
