// Package report defines race records and analysis reports shared by the
// SWORD offline analyzer and the ARCHER baseline, so the experiment
// harness can compare tools uniformly.
package report

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Side describes one of the two accesses of a race.
type Side struct {
	PC     uint64 // interned program-counter id
	Source string // symbolized source location, e.g. "ompscr/md.go:87"
	Write  bool
	Atomic bool
}

func (s Side) op() string {
	switch {
	case s.Write && s.Atomic:
		return "atomic-write"
	case s.Write:
		return "write"
	case s.Atomic:
		return "atomic-read"
	default:
		return "read"
	}
}

// String renders the side as "write ompscr/md.go:87".
func (s Side) String() string { return s.op() + " " + s.Source }

// Race is one reported data race, deduplicated by the unordered pair of
// access sites.
type Race struct {
	First, Second Side
	Addr          uint64 // witness address of one conflicting pair
	Count         int    // distinct detections merged into this record
}

// String renders the race like the tools' reports:
// "race: write md.go:87 <-> read md.go:91 @ 0x10000f0".
func (r Race) String() string {
	return fmt.Sprintf("race: %s <-> %s @ %#x", r.First, r.Second, r.Addr)
}

// key identifies a race record regardless of side order.
type key struct {
	pcA, pcB uint64
	wA, wB   bool
}

func (r Race) normKey() key {
	a, b := r.First, r.Second
	if a.PC > b.PC || (a.PC == b.PC && a.Write && !b.Write) {
		a, b = b, a
	}
	return key{pcA: a.PC, pcB: b.PC, wA: a.Write, wB: b.Write}
}

// Stats captures analysis effort counters for the experiment tables, plus
// the coverage counters of an analysis over a damaged trace.
type Stats struct {
	Intervals       int    // barrier intervals analyzed
	IntervalPairs   int    // concurrent interval pairs compared
	TreeNodes       int    // interval-tree nodes built (the paper's M)
	Accesses        uint64 // accesses summarized (the paper's N)
	NodeComparisons uint64 // overlapping node pairs examined
	SolverCalls     uint64 // strided-intersection solver invocations (memo misses)
	Regions         int    // parallel region instances

	// Comparison-engine effectiveness: decisions the solver memo answered
	// from cache, distinct offset-normalized shapes actually solved, and
	// node pairs retired without any solve because their race site was
	// already confirmed. All zero under NoSolver or the probe engine.
	SolverCacheHits   uint64
	SolverCacheMisses uint64
	SitesSuppressed   uint64

	// PairsPrefiltered counts concurrent unit pairs dropped before any
	// comparison because their unit-level summaries prove no node pair
	// can race (no write on either side, both all-atomic, a commonly held
	// mutex, or disjoint bounding boxes). On the distributed planner it
	// additionally counts pairs dropped because a unit owns zero trace
	// bytes. Dropping such pairs never changes the reported race set.
	PairsPrefiltered uint64

	// PairsRetiredStatic counts concurrent unit pairs retired because both
	// units are covered by the same trusted CLEAN static loop certificate:
	// the runtime proved the threads' footprints disjoint before dropping
	// a single access, and the analyzer re-verified the certificate's
	// structural position. Retired pairs never reach the comparison engine.
	PairsRetiredStatic uint64

	// Salvage coverage: how much of a damaged trace survived. All zero on
	// an intact trace; on a damaged one the analysis also returns the
	// damage as its error (trace.ErrTraceDamaged).
	IntervalsQuarantined int    // intervals excluded because their data was lost
	CorruptBlocks        int    // log blocks that failed their integrity check
	TruncatedSlots       int    // slots whose log or meta stream ended torn
	SalvagedBytes        uint64 // logical trace bytes recovered and analyzed
	LostBytes            uint64 // logical trace bytes lost to corruption
}

// Partial reports whether the analysis ran over a damaged trace: some
// intervals were quarantined or trace bytes were lost, so a clean result
// means "no races found in what survived", not "no races".
func (s *Stats) Partial() bool {
	return s.IntervalsQuarantined > 0 || s.CorruptBlocks > 0 || s.TruncatedSlots > 0 || s.LostBytes > 0
}

// Merge folds other into s field-wise. Every field is a sum counter, so
// merging is commutative and associative — the property the distributed
// coordinator relies on to fold worker batch deltas in completion order.
// A test enumerates the struct's fields by reflection, so adding a field
// without extending Merge fails the build's tests, not production merges.
func (s *Stats) Merge(other Stats) {
	s.Intervals += other.Intervals
	s.IntervalPairs += other.IntervalPairs
	s.TreeNodes += other.TreeNodes
	s.Accesses += other.Accesses
	s.NodeComparisons += other.NodeComparisons
	s.SolverCalls += other.SolverCalls
	s.Regions += other.Regions
	s.SolverCacheHits += other.SolverCacheHits
	s.SolverCacheMisses += other.SolverCacheMisses
	s.SitesSuppressed += other.SitesSuppressed
	s.PairsPrefiltered += other.PairsPrefiltered
	s.PairsRetiredStatic += other.PairsRetiredStatic
	s.IntervalsQuarantined += other.IntervalsQuarantined
	s.CorruptBlocks += other.CorruptBlocks
	s.TruncatedSlots += other.TruncatedSlots
	s.SalvagedBytes += other.SalvagedBytes
	s.LostBytes += other.LostBytes
}

// Report accumulates deduplicated races. It is safe for concurrent Add,
// matching the analyzer's parallel interval-pair comparison.
type Report struct {
	mu    sync.Mutex
	races map[key]*Race
	notes []string
	Stats Stats
}

// New returns an empty report.
func New() *Report { return &Report{races: make(map[key]*Race)} }

// Add records a race, merging duplicates of the same site pair.
func (r *Report) Add(race Race) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := race.normKey()
	if existing, ok := r.races[k]; ok {
		existing.Count += max(race.Count, 1)
		return
	}
	if race.Count == 0 {
		race.Count = 1
	}
	r.races[k] = &race
}

// Races returns the deduplicated races sorted by source locations, then
// operations, then pc ids, then witness address — a total order, so the
// rendering of a report never depends on the order races were added.
func (r *Report) Races() []Race {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Race, 0, len(r.races))
	for _, race := range r.races {
		out = append(out, *race)
	}
	slices.SortFunc(out, func(a, b Race) int {
		return cmp.Or(cmp.Compare(a.First.Source, b.First.Source), cmp.Compare(a.Second.Source, b.Second.Source),
			cmp.Compare(a.First.op(), b.First.op()), cmp.Compare(a.Second.op(), b.Second.op()),
			cmp.Compare(a.First.PC, b.First.PC), cmp.Compare(a.Second.PC, b.Second.PC), cmp.Compare(a.Addr, b.Addr))
	})
	return out
}

// Len returns the number of distinct races.
func (r *Report) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.races)
}

// Resymbolize rewrites every recorded race's source locations through
// name. The live analyzer reports races before the collector persists its
// pc table (that happens only at Close), so sites carry placeholder names
// until the end of the run installs the real table. Dedup keys are PC
// ids, not names, so resymbolizing never merges or splits records. Safe
// for concurrent use.
func (r *Report) Resymbolize(name func(pc uint64) string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, race := range r.races {
		race.First.Source = name(race.First.PC)
		race.Second.Source = name(race.Second.PC)
	}
}

// Note records an annotation about the analysis — an analysis over a
// damaged trace uses it to say what was lost and why. Safe for concurrent
// use.
func (r *Report) Note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Notes returns the annotations in recording order.
func (r *Report) Notes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.notes...)
}

// String renders the full report, one race per line, with a summary and
// any notes.
func (r *Report) String() string {
	races := r.Races()
	var b strings.Builder
	for _, race := range races {
		b.WriteString(race.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d race(s)\n", len(races))
	for _, n := range r.Notes() {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if r.Stats.Partial() {
		fmt.Fprintf(&b, "partial trace: %d interval(s) quarantined, %d corrupt block(s), %d truncated slot(s), %d byte(s) lost\n",
			r.Stats.IntervalsQuarantined, r.Stats.CorruptBlocks, r.Stats.TruncatedSlots, r.Stats.LostBytes)
	}
	return b.String()
}

// jsonReport is the machine-readable form of a report.
type jsonReport struct {
	Races []jsonRace `json:"races"`
	Stats Stats      `json:"stats"`
	Notes []string   `json:"notes,omitempty"`
}

type jsonRace struct {
	First  jsonSide `json:"first"`
	Second jsonSide `json:"second"`
	Addr   string   `json:"addr"`
	Count  int      `json:"count"`
}

type jsonSide struct {
	PC     uint64 `json:"pc"`
	Source string `json:"source"`
	Op     string `json:"op"`
}

// MarshalJSON renders the report as stable, sorted JSON for tooling.
func (r *Report) MarshalJSON() ([]byte, error) {
	races := r.Races()
	out := jsonReport{Races: make([]jsonRace, 0, len(races)), Stats: r.Stats, Notes: r.Notes()}
	for _, race := range races {
		out.Races = append(out.Races, jsonRace{
			First:  jsonSide{PC: race.First.PC, Source: race.First.Source, Op: race.First.op()},
			Second: jsonSide{PC: race.Second.PC, Source: race.Second.Source, Op: race.Second.op()},
			Addr:   fmt.Sprintf("%#x", race.Addr),
			Count:  race.Count,
		})
	}
	return json.Marshal(out)
}
