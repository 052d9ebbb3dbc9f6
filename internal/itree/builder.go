package itree

import (
	"sync"
	"unsafe"

	"sword/internal/trace"
)

// slabPool recycles pre-sort slabs between builders: a unit's slab is
// pure scratch once Finish copies the survivors out, and the next unit —
// often the same shape — starts from a grown slab instead of re-walking
// the growth ladder. Entries are *[]Run to keep Put/Get allocation-free.
var slabPool sync.Pool

// keyPool recycles the sort-key scratch Finish and sortRunKeys use.
var keyPool sync.Pool

func getSlab() []Run {
	if p, _ := slabPool.Get().(*[]Run); p != nil {
		return (*p)[:0]
	}
	return make([]Run, 0, 256)
}

func putSlab(s []Run) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	slabPool.Put(&s)
}

func getKeys(n int) []sortKey {
	if p, _ := keyPool.Get().(*[]sortKey); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]sortKey, n)
}

func putKeys(k []sortKey) {
	if cap(k) == 0 {
		return
	}
	k = k[:0]
	keyPool.Put(&k)
}

// Builder constructs the Low-sorted summarized run the sweep engine
// consumes without going through a red-black tree. Accesses append to a
// contiguous slab of pointer-free Run payloads, coalescing into recently
// touched runs exactly as Tree.Insert does; Finish then sorts the slab
// once and applies the same neighbor-merge pass Compact performs. The
// resulting node sequence is identical, node for node, to flattening a
// Tree built from the same access stream and compacted — but with O(1)
// work per access, no rebalancing, and no per-node allocation: the slab
// carries no pointers, so the garbage collector never scans it and
// appends take no write barriers.
//
// The zero value is ready for use. Not safe for concurrent use; like the
// tree, each unit is built on a single worker.
type Builder struct {
	runs []Run
	// flat is the sorted (and merged) run Finish produced, nil until then.
	// The pre-sort slab is released when Finish returns.
	flat []Run
	// recent indexes the most recently created runs in the slab,
	// most-recent first — the same 4-entry coalescing cache Tree.Insert
	// keeps, stored as indices because slab growth moves the backing
	// array.
	recent  [4]int32
	nrecent int
	accum   uint64
}

// Summary captures unit-level facts the pair pre-filter consumes. All
// fields aggregate over the finished run; for an empty unit Low > High
// and the other fields hold their vacuous values (AllAtomic true,
// CommonMutexes all ones), so callers must test Len first.
type Summary struct {
	Low           uint64         // lowest address touched
	High          uint64         // highest byte touched (bounding box right edge)
	AnyWrite      bool           // at least one node writes
	AllAtomic     bool           // every node is atomic
	CommonMutexes trace.MutexSet // mutexes held across every node
	Bytes         uint64         // bytes the finished run holds, for memory accounting
}

// Len returns the current number of summarized nodes (after Finish, the
// post-merge count).
func (b *Builder) Len() int {
	if b.flat != nil {
		return len(b.flat)
	}
	return len(b.runs)
}

// Accesses returns the total number of accesses inserted (the paper's N,
// versus Len which is M).
func (b *Builder) Accesses() uint64 { return b.accum }

// Insert adds an access, coalescing it into a recently created run when
// it continues that run's arithmetic progression with identical
// attributes. The coalescing rules mirror Tree.Insert case for case so
// the pre-sort slab holds the same node multiset a tree build produces.
func (b *Builder) Insert(a Access) {
	b.accum++
	for _, idx := range b.recent[:b.nrecent] {
		r := &b.runs[idx]
		if r.PC != a.PC || r.Write != a.Write || r.Atomic != a.Atomic ||
			r.Width != a.Width || r.Mutexes != a.Mutexes {
			continue
		}
		switch {
		case a.Addr == r.High:
			r.Count++
			return
		case r.Stride == 0 && a.Addr > r.Low:
			r.Stride = a.Addr - r.Low
			r.High = a.Addr
			r.Count++
			return
		case r.Stride != 0 && a.Addr == r.High+r.Stride:
			r.High = a.Addr
			r.Count++
			return
		}
	}
	if len(b.runs) == cap(b.runs) {
		b.grow()
	}
	b.runs = append(b.runs, Run{Low: a.Addr, High: a.Addr, Width: a.Width,
		Write: a.Write, Atomic: a.Atomic, PC: a.PC, Mutexes: a.Mutexes, Count: 1})
	if b.nrecent < len(b.recent) {
		b.nrecent++
	}
	copy(b.recent[1:b.nrecent], b.recent[:b.nrecent-1])
	b.recent[0] = int32(len(b.runs) - 1)
}

// grow resizes the slab ahead of append's default policy: pointer-free
// scratch that Finish releases can afford to overshoot, and quadrupling
// while small keeps the total bytes moved across regrowths near n instead
// of append's 2n — slab regrowth was the analyzer front-end's largest
// remaining profile entry under doubling.
func (b *Builder) grow() {
	if cap(b.runs) == 0 {
		b.runs = getSlab()
		return
	}
	newCap := 4 * cap(b.runs)
	if cap(b.runs) >= 1<<16 {
		newCap = 2 * cap(b.runs)
	}
	grown := make([]Run, len(b.runs), newCap)
	copy(grown, b.runs)
	putSlab(b.runs) // outgrown slab becomes scratch for smaller units
	b.runs = grown
}

// sortKey pairs a run's Low with its slab index so the sort touches a
// packed 16-byte array instead of chasing indices into 64-byte runs.
type sortKey struct {
	low uint64
	idx int32
}

// sortRunKeys orders keys by low ascending, preserving the original
// (insertion) order among equal lows — the same order a ties-to-right BST
// yields. It is a stable LSD radix sort on low-minLow, one byte per pass,
// skipping passes no key needs: address ranges within a unit are narrow,
// so two or three counting passes replace an O(n log n) comparison sort
// whose per-comparison closure calls dominated analyzer profiles.
func sortRunKeys(keys []sortKey) {
	minLow, maxLow := keys[0].low, keys[0].low
	for _, k := range keys[1:] {
		minLow = min(minLow, k.low)
		maxLow = max(maxLow, k.low)
	}
	span := maxLow - minLow
	if span == 0 {
		return
	}
	tmp := getKeys(len(keys))
	defer putKeys(tmp)
	passes := 0
	for shift := uint(0); span>>shift != 0; shift += 8 {
		var count [257]int
		for _, k := range keys {
			count[int(byte((k.low-minLow)>>shift))+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, k := range keys {
			c := byte((k.low - minLow) >> shift)
			tmp[count[c]] = k
			count[c]++
		}
		keys, tmp = tmp, keys
		passes++
	}
	// After an odd number of ping-pong swaps the sorted result sits in the
	// scratch array; copy it back into the caller's backing array (tmp now
	// aliases it).
	if passes%2 == 1 {
		copy(tmp, keys)
	}
}

// Finish sorts the slab into ascending Low order (equal-Low runs keep
// insertion order — the same order a ties-to-right BST yields) and, when
// compact is true, merges mergeable neighbors in one linear pass using
// the same rules as Tree.Compact. It returns the flattened run as a
// pointer-free Run slice the sweep engine indexes directly, and releases
// the pre-sort slab. The Builder must not be Inserted into afterwards
// until Reset.
func (b *Builder) Finish(compact bool) ([]Run, Summary) {
	keys := getKeys(len(b.runs))
	sorted := true
	for i := range b.runs {
		keys[i] = sortKey{low: b.runs[i].Low, idx: int32(i)}
		sorted = sorted && (i == 0 || keys[i-1].low <= keys[i].low)
	}
	if !sorted {
		sortRunKeys(keys)
	}
	flat := make([]Run, 0, len(b.runs))
	for _, k := range keys {
		if compact && len(flat) > 0 && tryMerge(&flat[len(flat)-1], &b.runs[k.idx]) {
			continue
		}
		flat = append(flat, b.runs[k.idx])
	}
	sum := Summary{
		AllAtomic:     true,
		CommonMutexes: ^trace.MutexSet(0),
		Bytes:         uint64(cap(flat)) * uint64(unsafe.Sizeof(Run{})),
	}
	if len(flat) == 0 {
		sum.Low, sum.High = 1, 0
	} else {
		sum.Low = flat[0].Low
	}
	for i := range flat {
		n := &flat[i]
		if e := n.lastByte(); e > sum.High || i == 0 {
			sum.High = e
		}
		sum.AnyWrite = sum.AnyWrite || n.Write
		sum.AllAtomic = sum.AllAtomic && n.Atomic
		sum.CommonMutexes &= n.Mutexes
	}
	putKeys(keys)
	putSlab(b.runs) // the sorted run supersedes the slab
	b.runs = nil
	b.flat = flat
	return flat, sum
}

// Reset drops the slab and returns the Builder to its zero state,
// releasing the node memory for the garbage collector (resident-cache
// eviction relies on this).
func (b *Builder) Reset() { *b = Builder{} }
