package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"sword/internal/itree"
	"sword/internal/trace"
)

// region is one parallel region or task instance recovered from meta-data.
type region struct {
	id     uint64
	ppid   uint64
	span   uint64
	level  uint32
	parent *region
	top    *region // outermost ancestor region

	// Tasking extension: async marks an OpenMP task; forkCut and waitCut
	// delimit its concurrency window within the parent interval, in the
	// parent's fragment-cut coordinates. Sync regions have a point window
	// at forkCut (the parent is suspended across them). waitCut is
	// ^uint64(0) for tasks never taskwait-ed (they complete at the
	// barrier, which interval bids already order).
	async   bool
	forkCut uint64
	waitCut uint64

	// frames are the fork coordinates of this region's chain within each
	// ancestor, outermost first. frames[0] positions the chain's top-level
	// region within the initial thread (tid 0, bid 0, seq = region id,
	// since the initial thread forks top-level regions in program order);
	// frames[i] positions the chain within ancestor i.
	frames []frame

	// quarantined marks a region whose concurrency structure could not be
	// recovered from a damaged trace (a lost parent, an unresolvable
	// chain): the analysis excludes its intervals rather than guessing at
	// concurrency.
	quarantined bool
}

// frame is a fork coordinate: where, inside an enclosing region, the next
// region of a lineage chain (or an interval) sits — extended with the
// tasking window.
type frame struct {
	tid, bid, seq    uint64
	async            bool
	forkCut, waitCut uint64
}

// windowsOverlap decides whether two sibling subtrees hanging off the same
// interval can run concurrently: sync regions occupy the single boundary
// point at which the spawner suspended; tasks occupy [forkCut, waitCut).
func windowsOverlap(x, y frame) bool {
	if !x.async && !y.async {
		return false // sync siblings: serialized by the spawner
	}
	if x.async && y.async {
		return x.forkCut < y.waitCut && y.forkCut < x.waitCut
	}
	if !x.async {
		x, y = y, x // x async, y the sync point
	}
	return x.forkCut <= y.forkCut && y.forkCut < x.waitCut
}

// interval is one thread's execution between two consecutive barriers of
// one region instance: the unit of concurrency analysis. Intervals that
// spawn tasks carry one tree unit per fragment, so accesses can be ordered
// against the spawn/wait boundaries; other intervals use a single unit.
type interval struct {
	key        trace.IntervalKey
	region     *region
	slot       int
	frags      []fragment
	taskParent bool
	units      []*treeUnit

	// cert is the static loop certificate covering this interval, if any,
	// and certRow the interval's thread row within it (cert.go).
	cert    *certInfo
	certRow int

	// quarantined excludes the interval from the analysis: its log data
	// intersects a lost range, extends past a truncated log, or
	// its region's structure is unrecoverable. The flag persists across
	// SubtreeBatch batches.
	quarantined bool
}

// treeUnit is a comparable chunk of an interval's accesses.
//
// Two construction paths fill it. The default is the arena run builder:
// accesses append into build's contiguous slab and finalize sorts it once
// into the Low-ordered run flat, together with the unit summary sum that
// the pair pre-filter consumes. Under Config.ProbeEngine the legacy
// red-black interval tree is built instead (probe is true, the builder
// stays empty) — the probing comparison engine needs the overlap index,
// and the tree path remains the differential reference for the builder.
type treeUnit struct {
	iv    *interval
	cut   uint64 // fragment cut; 0 for whole-interval units
	probe bool   // legacy tree path (Config.ProbeEngine)
	tree  itree.Tree
	build itree.Builder

	// sum is the unit-level aggregate the pair pre-filter tests; valid
	// only after finalize on the builder path (hasSum).
	sum    itree.Summary
	hasSum bool

	// entered records that the slot cursor has reached one of the unit's
	// fragments: the unit is open from then until it is finalized.
	entered bool

	// flat caches the unit's runs in ascending Low order, reused by
	// every sweep comparison the unit joins. The builder path fills it in
	// finalize (before any comparison runs); the probe path flattens the
	// tree lazily under flatOnce because units are shared between
	// concurrently compared pairs. Freed when the batch drops the unit.
	flatOnce sync.Once
	flat     []itree.Run
}

// insert routes one access into the unit's active construction path.
func (u *treeUnit) insert(a itree.Access) {
	if u.probe {
		u.tree.Insert(a)
		return
	}
	u.build.Insert(a)
}

// finalize completes the unit once the slot cursor has passed its last
// fragment (or the log ended): the builder path sorts the slab into the
// flattened run, returns the slab to the pool, and computes the pre-filter
// summary; the probe path compacts the tree (its flatten stays lazy).
// Returns the finished run's bytes for the core.run_builder_bytes counter
// (zero on the probe path).
func (u *treeUnit) finalize(compact bool) uint64 {
	if u.probe {
		if compact {
			u.tree.Compact()
		}
		return 0
	}
	u.flat, u.sum = u.build.Finish(compact)
	u.hasSum = true
	return u.sum.Bytes
}

// nodeCount returns the unit's summarized node count (the paper's M).
func (u *treeUnit) nodeCount() int {
	if u.probe {
		return u.tree.Len()
	}
	return u.build.Len()
}

// accesses returns the number of accesses inserted (the paper's N).
func (u *treeUnit) accesses() uint64 {
	if u.probe {
		return u.tree.Accesses()
	}
	return u.build.Accesses()
}

// run returns the unit's flattened, Low-sorted interval run.
func (u *treeUnit) run() []itree.Run {
	if !u.probe {
		return u.flat // set by finalize before comparison starts
	}
	u.flatOnce.Do(func() { u.flat = u.tree.Runs() })
	return u.flat
}

// fragment is one contiguous byte range of the interval in its slot's log.
type fragment struct {
	begin, size uint64
	held        trace.MutexSet
	cut         uint64
	unit        *treeUnit // assigned by materializeUnits
}

// materializeUnits creates the interval's tree units: per fragment when
// the interval spawns tasks, a single unit otherwise. probe selects the
// legacy red-black tree construction path (Config.ProbeEngine).
func (iv *interval) materializeUnits(probe bool) {
	if iv.units != nil {
		return
	}
	if !iv.taskParent {
		u := &treeUnit{iv: iv, probe: probe}
		iv.units = []*treeUnit{u}
		for i := range iv.frags {
			iv.frags[i].unit = u
		}
		return
	}
	for i := range iv.frags {
		u := &treeUnit{iv: iv, cut: iv.frags[i].cut, probe: probe}
		iv.units = append(iv.units, u)
		iv.frags[i].unit = u
	}
}

// resetTree frees the unit's tree and flattened run between distributed
// batches while keeping the unit object itself — and with it the UnitID
// index pointing at it — stable, unlike resetUnits which drops the units.
func (u *treeUnit) resetTree() {
	u.tree = itree.Tree{}
	u.build.Reset()
	u.sum = itree.Summary{}
	u.hasSum = false
	u.entered = false
	u.flatOnce = sync.Once{}
	u.flat = nil
}

// resetUnits frees the interval's trees (streaming batches).
func (iv *interval) resetUnits() {
	iv.units = nil
	for i := range iv.frags {
		iv.frags[i].unit = nil
	}
}

// structure is the recovered concurrency structure of a run.
type structure struct {
	regions   map[uint64]*region
	intervals map[trace.IntervalKey]*interval
	bySlot    map[int][]*interval // used to route log events to trees
	topGroups map[uint64][]*region
	certs     []*certInfo // static loop certificates (cert.go)

	// Damage found while recovering the structure, in a deterministic
	// order; empty on an intact trace.
	damage        []trace.SalvageEntry
	truncatedMeta map[int]bool // slots whose meta stream ended torn
}

// note records structural damage that has no single file position.
func (s *structure) note(format string, args ...any) {
	s.damage = append(s.damage, trace.SalvageEntry{Block: -1, Cause: fmt.Sprintf(format, args...)})
}

// slotRecords is one slot's decoded meta stream: the input unit assemble
// consumes. buildStructure fills it from the store's meta files; the
// streaming analyzer fills it from its tailing readers.
type slotRecords struct {
	slot  int
	metas []trace.Meta
	certs []trace.LoopCert
}

// newStructure returns an empty structure ready for assemble.
func newStructure() *structure {
	return &structure{
		regions:       make(map[uint64]*region),
		intervals:     make(map[trace.IntervalKey]*interval),
		bySlot:        make(map[int][]*interval),
		topGroups:     make(map[uint64][]*region),
		truncatedMeta: make(map[int]bool),
	}
}

// buildStructure loads every slot's meta-data file plus the taskwaits
// table and reconstructs regions and intervals. Damage is recorded, not
// fatal: torn meta streams contribute their intact prefix, and regions
// whose structure cannot be recovered (a parent lost with a damaged slot)
// are quarantined together with their intervals.
func buildStructure(store trace.Store) (*structure, error) {
	slots, err := store.Slots()
	if err != nil {
		return nil, fmt.Errorf("core: list slots: %w", err)
	}
	s := newStructure()
	taskWaits := map[uint64]uint64{}
	if aux, err := store.OpenAux("taskwaits"); err == nil {
		if taskWaits, err = trace.ReadTaskWaits(aux); err != nil {
			// Without taskwait cuts, task windows stay conservatively open
			// ([forkCut, ∞)), which can only widen concurrency, not miss it.
			s.damage = append(s.damage, trace.SalvageEntry{File: "aux taskwaits", Block: -1,
				Cause: fmt.Sprintf("unreadable (%v); task windows left open", err)})
			taskWaits = map[uint64]uint64{}
		}
	}
	var inputs []slotRecords
	for _, slot := range slots {
		var metas []trace.Meta
		var certs []trace.LoopCert
		src, err := store.OpenMeta(slot)
		if err == nil {
			metas, certs, err = trace.ReadAllMetaCerts(src)
		}
		if err != nil {
			// A torn or damaged stream keeps its intact records; an
			// unreadable one keeps none.
			var rep *trace.SalvageReport
			if !errors.As(err, &rep) {
				rep = &trace.SalvageReport{Truncated: true,
					Entries: []trace.SalvageEntry{{Block: -1, Cause: fmt.Sprintf("unreadable (%v)", err)}}}
			}
			if rep.Truncated {
				s.truncatedMeta[slot] = true
			}
			for _, e := range rep.Entries {
				e.File = fmt.Sprintf("meta %d", slot)
				s.damage = append(s.damage, e)
			}
		}
		inputs = append(inputs, slotRecords{slot: slot, metas: metas, certs: certs})
	}
	s.assemble(inputs, taskWaits)
	return s, nil
}

// assemble reconstructs regions and intervals from decoded meta records:
// region creation and linking, frame-chain resolution, task-parent
// marking, certificate attachment, and the deterministic sort passes. It
// is the store-free half of buildStructure, shared with the streaming
// analyzer, which rebuilds the structure from its accumulated tail records
// on every analysis round. Inconsistent records are recorded as damage and
// dropped or quarantined, never trusted.
func (s *structure) assemble(inputs []slotRecords, taskWaits map[uint64]uint64) {
	noted := len(s.damage)
	var allCerts []trace.LoopCert
	for _, in := range inputs {
		slot := in.slot
		allCerts = append(allCerts, in.certs...)
		for i := range in.metas {
			m := &in.metas[i]
			r, ok := s.regions[m.PID]
			if !ok {
				r = &region{id: m.PID, ppid: m.PPID, span: m.Span, level: m.Level,
					async: m.Async, forkCut: m.ParentCut, waitCut: ^uint64(0)}
				if wc, waited := taskWaits[m.PID]; waited {
					r.waitCut = wc
				}
				s.regions[m.PID] = r
			}
			key := m.Key()
			iv, ok := s.intervals[key]
			if !ok {
				iv = &interval{key: key, region: r, slot: slot}
				s.intervals[key] = iv
				s.bySlot[slot] = append(s.bySlot[slot], iv)
			}
			if iv.slot != slot {
				s.note("slot %d: meta record for interval %+v conflicts with slot %d; record dropped", slot, key, iv.slot)
				continue
			}
			iv.frags = append(iv.frags, fragment{begin: m.DataBegin, size: m.DataSize, held: m.Held, cut: m.Cut})
			// Fork coordinates are identical on every fragment of a region;
			// stash them on first sight via a provisional one-frame tail.
			if r.frames == nil {
				r.frames = []frame{{tid: m.ParentTID, bid: m.ParentBID, seq: m.Seq,
					async: m.Async, forkCut: r.forkCut, waitCut: r.waitCut}}
			}
		}
	}
	// Link parents and compose full frame chains.
	for _, r := range s.regions {
		if r.ppid != trace.NoParent {
			p, ok := s.regions[r.ppid]
			if !ok {
				// The parent's meta records were lost with a damaged slot:
				// this region's position in the concurrency structure is
				// unknowable, so its subtree is excluded.
				r.quarantined = true
				s.note("region %d references parent %d, lost with a damaged slot; subtree quarantined", r.id, r.ppid)
				continue
			}
			r.parent = p
		}
	}
	// Quarantine is hereditary: a region below a quarantined ancestor has
	// no recoverable position either. A walk longer than the region count
	// has entered a parent cycle, which damaged records can form.
	for _, r := range s.regions {
		steps := 0
		for p := r.parent; p != nil && !r.quarantined; p = p.parent {
			if steps++; steps > len(s.regions) {
				r.quarantined = true
				s.note("region %d: parent cycle; quarantined", r.id)
				break
			}
			r.quarantined = p.quarantined
		}
	}
	for _, r := range s.regions {
		if r.quarantined {
			r.top = r // self-reference keeps lookups total; not a topGroup
			continue
		}
		if _, err := s.resolveFrames(r, 0); err != nil {
			r.quarantined = true
			r.top = r
			s.note("region %d: %v; quarantined", r.id, err)
			continue
		}
		top := r
		for top.parent != nil {
			top = top.parent
		}
		r.top = top
		s.topGroups[top.id] = append(s.topGroups[top.id], r)
	}
	// Mark intervals that spawn tasks: their trees must be per-fragment so
	// accesses order against the spawn and wait cuts.
	for _, r := range s.regions {
		if !r.async || r.parent == nil || r.quarantined {
			continue
		}
		f := r.frames[len(r.frames)-1]
		key := trace.IntervalKey{PID: r.ppid, TID: f.tid, BID: f.bid}
		if iv, ok := s.intervals[key]; ok {
			iv.taskParent = true
		}
	}
	for _, iv := range s.intervals {
		if iv.region.quarantined {
			iv.quarantined = true
		}
	}
	// Certificates resolve last: trust depends on final quarantine flags
	// and the fully linked region forest.
	s.attachCerts(allCerts)
	// Deterministic fragment order within each interval and interval order
	// within each slot (analysis routing relies on position order).
	for _, iv := range s.intervals {
		sort.Slice(iv.frags, func(i, j int) bool { return iv.frags[i].begin < iv.frags[j].begin })
	}
	for slot := range s.bySlot {
		ivs := s.bySlot[slot]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].frags[0].begin < ivs[j].frags[0].begin })
	}
	for _, rs := range s.topGroups {
		sort.Slice(rs, func(i, j int) bool { return rs[i].id < rs[j].id })
	}
	// Damage found while walking the region map was noted in map order;
	// sorted, reruns list it alike.
	slices.SortStableFunc(s.damage[noted:], func(a, b trace.SalvageEntry) int { return strings.Compare(a.Cause, b.Cause) })
}

// resolveFrames expands a region's provisional single-frame tail into the
// full chain from the virtual root, memoized on the region.
func (s *structure) resolveFrames(r *region, depth int) ([]frame, error) {
	if depth > len(s.regions) {
		return nil, fmt.Errorf("core: region parent cycle at %d", r.id)
	}
	if r.frames == nil {
		// A region can appear as a parent without own fragments (all its
		// accesses empty): synthesize neutral coordinates.
		r.frames = []frame{{}}
	}
	if len(r.frames) > 1 || r.parent == nil {
		if r.parent == nil && len(r.frames) == 1 {
			// Top-level: the initial thread forks regions in program
			// order, so the region id orders siblings.
			r.frames[0] = frame{tid: 0, bid: 0, seq: r.id}
		}
		return r.frames, nil
	}
	parentFrames, err := s.resolveFrames(r.parent, depth+1)
	if err != nil {
		return nil, err
	}
	own := r.frames[0]
	r.frames = append(append([]frame(nil), parentFrames...), own)
	return r.frames, nil
}
