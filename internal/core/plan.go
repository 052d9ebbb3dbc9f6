package core

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sort"

	"sword/internal/report"
	"sword/internal/trace"
)

// This file is the distributed-analysis surface of the core package: a
// process-independent naming of the comparable work (UnitID, PairUnit) and
// a BatchAnalyzer that executes arbitrary subsets of that work against a
// shared trace store. The coordinator in internal/dist plans work units
// from the meta files alone — no log is streamed and no tree is built on
// the coordinator — and workers resolve the same UnitIDs against their own
// identically-recovered structure, build only the trees a batch touches,
// and compare exactly the pairs they were handed.

// UnitID names one comparable tree unit across process boundaries. Key is
// the owning interval; Unit indexes the interval's deterministic unit list
// (one unit per fragment for task-spawning intervals, a single unit 0
// otherwise). Fragments are sorted by log offset during structure
// recovery, so every process that read the same meta files resolves a
// UnitID to the same chunk of the same interval.
type UnitID struct {
	Key  trace.IntervalKey
	Unit int
}

// PairUnit is one unit of distributable comparison work: two concurrent
// tree units plus a cost estimate the coordinator schedules by. Cost is
// the product of the units' fragment byte sizes — computable from meta
// data alone, a stand-in for the run-length product the in-process
// scheduler uses once trees exist.
type PairUnit struct {
	A, B UnitID
	Cost uint64
}

// residentDefault is the resident-tree byte budget when the caller leaves
// Config.ResidentBudget at zero: enough to keep every bundled workload's
// whole trace resident while still bounding a production worker.
const residentDefault = 256 << 20

// residentEntry is one interval whose trees (and flattened runs) are kept
// alive across batches, charged at its trace volume.
type residentEntry struct {
	iv    *interval
	bytes int64
}

// BatchAnalyzer executes distributed analysis batches over one trace
// store. Construction recovers the region structure and enumerates the
// full work plan without touching the logs; AnalyzeUnits then builds only
// the interval trees a batch references (block-skipping past everything
// else) and compares the batch's pairs with the persistent sweep engine —
// solver memo and race-site suppression stay warm across batches.
//
// Built trees are not necessarily freed per batch: a bounded LRU keyed by
// interval keeps up to Config.ResidentBudget bytes of trace resident, so
// consecutive batches that touch the same intervals (the plan is ordered
// for exactly that affinity) reuse the trees and their flattened sweep
// runs instead of re-streaming the logs. The budget preserves SWORD's
// bounded-memory story: eviction frees the least recently used interval's
// trees, and a negative budget restores the free-every-batch behavior.
//
// The same type serves both sides of the wire: the coordinator plans with
// Units and never analyzes, workers analyze what they are handed.
type BatchAnalyzer struct {
	a     *Analyzer
	s     *structure
	eng   *compareEngine
	units map[UnitID]*treeUnit
	plan  []PairUnit
	vol   int64

	// prefiltered counts pairs the planner dropped because a unit owns
	// zero trace bytes — the coordinator-side slice of the pair
	// pre-filter, reported once via StructureStats.
	prefiltered uint64

	// retired counts pairs the planner dropped because both units are
	// covered by the same trusted CLEAN loop certificate (cert.go).
	retired uint64

	// Resident-tree LRU: resident maps an interval to its element in lru
	// (front = most recent); budget 0 disables residency entirely.
	budget        int64
	resident      map[*interval]*list.Element
	lru           *list.List
	residentBytes int64
	residentUnits int64
}

// NewBatchAnalyzer recovers the structure and plans the full unit-pair
// work list. Batches cannot quarantine — a quarantine decision on one
// worker would have to reach every other — so damage is an error here
// and in AnalyzeUnits, a *trace.SalvageReport for the caller to fall
// back to a single-process analysis, which salvages.
func NewBatchAnalyzer(store trace.Store, cfg Config) (*BatchAnalyzer, error) {
	a := New(store, cfg)
	pcs, pcDamage := a.loadPCs()
	s, err := buildStructure(store)
	if err != nil {
		return nil, err
	}
	s.damage = slices.Concat(pcDamage, s.damage)
	if err := a.damage(s).Err(); err != nil {
		return nil, err
	}
	budget := cfg.ResidentBudget
	if budget == 0 && cfg.MemoryBudget > 0 {
		budget = cfg.MemoryBudget // the per-job memory knob bounds residency too
	}
	if budget == 0 {
		budget = residentDefault
	} else if budget < 0 {
		budget = 0
	}
	b := &BatchAnalyzer{
		a:        a,
		s:        s,
		eng:      newCompareEngine(cfg, pcs, nil),
		units:    make(map[UnitID]*treeUnit, len(s.intervals)),
		budget:   budget,
		resident: make(map[*interval]*list.Element),
		lru:      list.New(),
	}
	for _, iv := range s.intervals {
		iv.materializeUnits(cfg.ProbeEngine)
		for i, u := range iv.units {
			b.units[UnitID{Key: iv.key, Unit: i}] = u
		}
		b.vol += intervalBytes(iv)
	}
	// Runs do not exist yet, so content-level pruning is impossible here —
	// but the meta files already expose each unit's trace volume, and a
	// unit owning zero log bytes can hold no accesses. Dropping its pairs
	// at the planner is the coordinator-side slice of the pair pre-filter
	// (counted in StructureStats so the merged report carries it); the
	// remaining empty-tree pairs still ship and compare in O(1).
	pairs, _, retired := enumeratePairs(s, nil, false, false, true)
	b.retired = retired
	b.plan = make([]PairUnit, 0, len(pairs))
	groups := make([]uint64, 0, len(pairs))
	groupCost := make(map[uint64]uint64)
	for _, p := range pairs {
		if !cfg.NoPrefilter && (unitBytes(p[0]) == 0 || unitBytes(p[1]) == 0) {
			b.prefiltered++
			continue
		}
		b.plan = append(b.plan, PairUnit{
			A:    b.idOf(p[0]),
			B:    b.idOf(p[1]),
			Cost: satMul(unitBytes(p[0]), unitBytes(p[1])),
		})
		// Pairs never cross top-level subtrees, so the A side names the
		// pair's barrier group.
		g := p[0].iv.region.top.id
		groups = append(groups, g)
		groupCost[g] = satAdd(groupCost[g], b.plan[len(b.plan)-1].Cost)
	}
	cfg.Obs.Counter("core.pairs_prefiltered").Add(b.prefiltered)
	cfg.Obs.Counter("core.pairs_retired_static").Add(b.retired)
	// Group-affinity schedule: pairs cluster by top-level barrier group so
	// consecutive batches touch the same intervals — that is what makes a
	// worker's resident trees and block skipping pay off. Groups run in
	// descending total cost (heaviest work spreads first), pairs within a
	// group in descending cost, with the canonical enumeration order as the
	// stable tie-break — the same deterministic schedule the in-process
	// analyzer uses, just with byte sizes standing in for run lengths.
	idx := make([]int, len(b.plan))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if groups[i] != groups[j] {
			if groupCost[groups[i]] != groupCost[groups[j]] {
				return groupCost[groups[i]] > groupCost[groups[j]]
			}
			return groups[i] < groups[j]
		}
		return b.plan[i].Cost > b.plan[j].Cost
	})
	ordered := make([]PairUnit, len(b.plan))
	for x, i := range idx {
		ordered[x] = b.plan[i]
	}
	b.plan = ordered
	return b, nil
}

// idOf inverts the unit index: the unit's position in its interval's list.
func (b *BatchAnalyzer) idOf(u *treeUnit) UnitID {
	for i, v := range u.iv.units {
		if v == u {
			return UnitID{Key: u.iv.key, Unit: i}
		}
	}
	panic("core: tree unit not in its interval's unit list")
}

// unitBytes is the unit's trace volume: its own fragment for per-fragment
// units, the whole interval otherwise.
func unitBytes(u *treeUnit) uint64 {
	var total uint64
	for _, f := range u.iv.frags {
		if f.unit == u {
			total += f.size
		}
	}
	return total
}

// intervalBytes is the interval's total trace volume — the residency
// charge for keeping its trees alive across batches.
func intervalBytes(iv *interval) int64 {
	var total int64
	for _, f := range iv.frags {
		total += int64(f.size)
	}
	return total
}

// satMul multiplies with saturation so pathological log sizes cannot wrap
// the cost ordering.
func satMul(a, b uint64) uint64 {
	if a != 0 && b > ^uint64(0)/a {
		return ^uint64(0)
	}
	return a * b
}

// satAdd adds with saturation, for the group cost totals.
func satAdd(a, b uint64) uint64 {
	if a > ^uint64(0)-b {
		return ^uint64(0)
	}
	return a + b
}

// Units returns the full work plan in schedule order (group-affine,
// descending cost). The slice is the caller's to partition into batches.
func (b *BatchAnalyzer) Units() []PairUnit {
	out := make([]PairUnit, len(b.plan))
	copy(out, b.plan)
	return out
}

// Volume is the run's total trace volume in bytes (summed over every
// interval's fragments) — the cost-model input for adaptive batch sizing
// and the distribution-worthiness cutoff.
func (b *BatchAnalyzer) Volume() int64 { return b.vol }

// StructureStats returns the run-level structure counts the coordinator
// folds into the merged report — fields no worker can report without
// double counting, since a batch only sees its own slice of the run.
func (b *BatchAnalyzer) StructureStats() report.Stats {
	return report.Stats{
		Intervals:          len(b.s.intervals),
		Regions:            len(b.s.regions),
		PairsPrefiltered:   b.prefiltered,
		PairsRetiredStatic: b.retired,
	}
}

// AnalyzeUnits compares one batch of pair units and returns a report
// holding the races found plus this batch's effort deltas in its Stats
// (node comparisons, solver calls, memo hits/misses, suppressed sites,
// interval pairs). Trees for referenced intervals already resident from
// earlier batches are reused as-is — flattened runs included — and only
// the missing ones are built; afterwards the resident cache is settled
// back under its byte budget (or everything is freed when residency is
// disabled). A done ctx aborts the batch with ctx.Err().
func (b *BatchAnalyzer) AnalyzeUnits(ctx context.Context, units []PairUnit) (*report.Report, error) {
	workers := EffectiveWorkers(b.a.cfg.Workers)
	m := b.a.cfg.Obs
	pairs := make([][2]*treeUnit, 0, len(units))
	need := make(map[*interval]bool)
	for _, pu := range units {
		ua, ok := b.units[pu.A]
		if !ok {
			return nil, fmt.Errorf("core: unknown work unit %+v", pu.A)
		}
		ub, ok := b.units[pu.B]
		if !ok {
			return nil, fmt.Errorf("core: unknown work unit %+v", pu.B)
		}
		pairs = append(pairs, [2]*treeUnit{ua, ub})
		need[ua.iv] = true
		need[ub.iv] = true
	}
	missing := make(map[*interval]bool)
	for iv := range need {
		if e, ok := b.resident[iv]; ok {
			b.lru.MoveToFront(e)
			m.Counter("core.resident_hits").Inc()
		} else {
			missing[iv] = true
			m.Counter("core.resident_misses").Inc()
		}
	}
	if len(missing) > 0 {
		if err := b.a.buildTrees(ctx, b.s, workers, logPass{only: missing}); err != nil {
			return nil, err
		}
	}
	// Until the batch completes, every freshly built interval must be
	// either adopted into the resident cache or freed: a tree left behind
	// unregistered would be rebuilt on its next use and hold every event
	// twice.
	settled := false
	defer func() {
		if settled {
			return
		}
		for iv := range missing {
			for _, u := range iv.units {
				u.resetTree()
			}
		}
	}()
	b.a.applyQuarantine(b.s, missing)
	if err := b.a.damage(b.s).Err(); err != nil {
		return nil, err
	}
	rep := report.New()
	b.eng.setReport(rep)
	before := b.eng.snapshot()
	schedulePairs(pairs) // real run-length costs now that trees exist
	if err := comparePairs(ctx, b.eng, workers, pairs); err != nil {
		return nil, err
	}
	after := b.eng.snapshot()
	rep.Stats.IntervalPairs = len(pairs)
	rep.Stats.NodeComparisons = after.comparisons - before.comparisons
	rep.Stats.SolverCalls = after.solverCalls - before.solverCalls
	rep.Stats.SolverCacheHits = after.cacheHits - before.cacheHits
	rep.Stats.SolverCacheMisses = after.cacheMisses - before.cacheMisses
	rep.Stats.SitesSuppressed = after.suppressed - before.suppressed
	if b.budget > 0 {
		for iv := range missing {
			e := b.lru.PushFront(&residentEntry{iv: iv, bytes: intervalBytes(iv)})
			b.resident[iv] = e
			b.residentBytes += intervalBytes(iv)
			b.residentUnits += int64(len(iv.units))
		}
		m.Gauge("core.units_resident_peak").SetMax(b.residentUnits)
		m.Gauge("core.resident_bytes").Set(b.residentBytes)
		b.evictToBudget()
		settled = true
	}
	return rep, nil
}

// evictToBudget frees least-recently-used resident intervals until the
// cache fits its byte budget again.
func (b *BatchAnalyzer) evictToBudget() {
	m := b.a.cfg.Obs
	for b.residentBytes > b.budget && b.lru.Len() > 0 {
		e := b.lru.Back()
		ent := e.Value.(*residentEntry)
		b.lru.Remove(e)
		delete(b.resident, ent.iv)
		b.residentBytes -= ent.bytes
		b.residentUnits -= int64(len(ent.iv.units))
		for _, u := range ent.iv.units {
			u.resetTree()
		}
		m.Counter("core.resident_evictions").Inc()
	}
	m.Gauge("core.resident_bytes").Set(b.residentBytes)
}
