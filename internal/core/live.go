package core

import (
	"context"
	"sort"

	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/trace"
)

// Live analysis support: the incremental half of the streaming analyzer
// (internal/stream). A LiveAnalyzer accepts rounds of sealed barrier
// groups while the traced program is still running, compares their
// same-group interval pairs immediately with the persistent sweep engine,
// and remembers which pairs were decided; Finalize then runs the ordinary
// batched analysis over the finished trace, skipping exactly those pairs,
// so the union of live and final comparisons is the post-mortem pair set
// and the reported race set is identical by construction.
//
// Only same-(pid, bid) pairs are compared live. Cross-region pairs depend
// on task windows (the taskwaits aux table, written only when the
// collector closes) and on frame chains that later arrivals can extend, so
// they are deferred to Finalize — deferral never loses a race, it only
// delays its report to the end of the run.

// SlotRecords is one slot's accumulated decoded meta stream — what the
// streaming analyzer's tailing readers have delivered so far. It mirrors
// the records buildStructure loads from a finished store.
type SlotRecords struct {
	Slot  int
	Metas []trace.Meta
	Certs []trace.LoopCert
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
// the engine (solver memo, confirmed race sites), the growing report, and
// the set of pairs already decided. It is not safe for concurrent use; the
// streaming analyzer serializes rounds.
type LiveAnalyzer struct {
	cfg  Config
	pcs  *pcreg.Table
	eng  *compareEngine
	rep  *report.Report
	seen map[pairKey]struct{}
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
		cfg:  cfg,
		pcs:  pcs,
		eng:  newCompareEngine(cfg, pcs, rep),
		rep:  rep,
		seen: make(map[pairKey]struct{}),
	}
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
	a := New(store, l.cfg)
	workers := EffectiveWorkers(l.cfg.Workers)
	if err := a.buildTrees(ctx, s, workers, nil, only, false); err != nil {
		return st, err
	}
	a.applyQuarantine(s, only)
	if err := a.damage(s).Err(); err != nil {
		return st, err
	}
	for iv := range only {
		for _, u := range iv.units {
			st.TreeNodes += u.nodeCount()
			st.Accesses += u.accesses()
		}
	}
	pairs := l.sameGroupPairs(s, groups, &st)
	st.Pairs = len(pairs)
	schedulePairs(pairs)
	if err := comparePairs(ctx, l.eng, workers, pairs); err != nil {
		return st, err
	}
	// The round's structure and trees are garbage once Step returns: only
	// the decided-pair keys, the engine, and the report persist. That is
	// the frontier bound — sealed groups never stay resident.
	return st, nil
}

// sameGroupPairs enumerates the same-(pid, bid) unit pairs of the sealed
// groups with the same certificate-retirement, empty-unit, and summary
// prefilter decisions enumeratePairs applies, and records every decided
// pair (compared or prefiltered) in seen so Finalize skips it. Retired
// pairs are NOT recorded: certificate trust is re-derived from the full
// structure at finalize, which either retires them again (they never reach
// the engine) or rematerializes their dropped accesses and compares them —
// both end states match the post-mortem decision exactly.
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
		if lessKey(y.iv.key, x.iv.key) || (x.iv.key == y.iv.key && y.cut < x.cut) {
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
			l.seen[pairKeyOf(k)] = struct{}{}
			return
		}
		l.seen[pairKeyOf(k)] = struct{}{}
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
	return pairs
}

// Finalize completes the analysis over the finished trace: it reloads the
// persisted pc table (resymbolizing the races reported live), then runs
// the ordinary batched post-mortem analysis into the same engine and
// report, skipping pairs already decided by live rounds. The returned
// report therefore holds exactly the race set and stats a pure
// post-mortem AnalyzeContext over the same store would produce, with the
// live rounds' comparison work already paid.
func (l *LiveAnalyzer) Finalize(ctx context.Context, store trace.Store) (*report.Report, error) {
	a := New(store, l.cfg)
	pcs, pcDamage := a.loadPCs()
	l.pcs = pcs
	l.eng.setPCs(pcs)
	l.rep.Resymbolize(pcs.Name)
	skip := func(p [2]*treeUnit) bool {
		_, ok := l.seen[pairKeyOf(p)]
		return ok
	}
	return a.analyze(ctx, l.eng, l.rep, skip, pcDamage)
}
