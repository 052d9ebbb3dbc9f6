package core

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sort"
	"testing"
	"time"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// racyWorkload runs a two-thread region where both threads write the whole
// array every round: every barrier interval pair carries the same
// write-write race, and rounds scales the trace volume (the log writer
// buffers 64 KiB, so crash tests need enough rounds to reach the store
// mid-run).
func racyWorkload(t *testing.T, store trace.Store, rounds int) error {
	t.Helper()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 128, Codec: compress.Raw{}})
	pc := pcreg.Site("salvage-test:ww")
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(64)
	rtm.Parallel(2, func(th *omp.Thread) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < 64; i++ {
				th.StoreF64(arr, i, float64(i), pc)
			}
			th.Barrier()
		}
	})
	return col.Close()
}

// raceSites normalizes a report to its distinct (pc, pc, write, write)
// pairs, the identity that survives a lost pc table.
func raceSites(rep *report.Report) [][4]uint64 {
	var out [][4]uint64
	for _, r := range rep.Races() {
		a, b := r.First, r.Second
		if a.PC > b.PC {
			a, b = b, a
		}
		k := [4]uint64{a.PC, b.PC, 0, 0}
		if a.Write {
			k[2] = 1
		}
		if b.Write {
			k[3] = 1
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		for x := 0; x < 4; x++ {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

func sitesEqual(a, b [][4]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSalvageCrashMidRun is the end-to-end crash simulation: the store
// dies mid-run (global byte budget runs out, final write torn), and the
// analysis of the wreckage must recover the intact prefix of every slot,
// analyze the surviving interval pairs, report the same races the
// uncorrupted run reports, and return the damage as an error beside them.
func TestSalvageCrashMidRun(t *testing.T) {
	clean := trace.NewMemStore()
	if err := racyWorkload(t, clean, 400); err != nil {
		t.Fatal(err)
	}
	cleanRep, err := New(clean, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.Len() == 0 {
		t.Fatal("clean run found no races; workload broken")
	}

	crashed := trace.NewMemStore()
	fs := trace.NewFaultStore(crashed)
	fs.FailWritesAfter(96<<10, nil) // the disk fills a couple of flushes in
	fs.SetTornWrites(true)
	if err := racyWorkload(t, fs, 400); err == nil {
		t.Fatal("collector reported no error despite the dying store")
	}

	metrics := obs.New()
	salvRep, err := New(crashed, Config{Obs: metrics}).Analyze()
	if !errors.Is(err, trace.ErrTraceDamaged) || salvRep == nil {
		t.Fatalf("salvage analysis: report %v, error %v; want both, the error damage", salvRep != nil, err)
	}
	st := salvRep.Stats
	if !st.Partial() {
		t.Fatalf("crashed trace not reported partial: %+v", st)
	}
	if st.IntervalsQuarantined == 0 {
		t.Fatalf("no intervals quarantined: %+v", st)
	}
	if st.IntervalsQuarantined >= st.Intervals {
		t.Fatalf("everything quarantined, nothing salvaged: %+v", st)
	}
	if st.SalvagedBytes == 0 {
		t.Fatalf("no bytes salvaged: %+v", st)
	}
	if len(salvRep.Notes()) == 0 {
		t.Fatal("salvage report carries no notes")
	}
	if got, want := raceSites(salvRep), raceSites(cleanRep); !sitesEqual(got, want) {
		t.Fatalf("salvaged races %v differ from clean run %v\nsalvage report:\n%s", got, want, salvRep)
	}
	snap := metrics.Snapshot()
	if snap.Value("trace.truncated_slots") == 0 {
		t.Fatal("trace.truncated_slots not counted")
	}
	if snap.Value("core.intervals_quarantined") == 0 {
		t.Fatal("core.intervals_quarantined not counted")
	}
}

// TestSalvageCorruptBlock flips one byte in the middle of a slot's log:
// the analysis must fail with the damage, quarantine only the damaged
// data, and still report the races of the healthy remainder.
func TestSalvageCorruptBlock(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	cleanRep, err := New(mem, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}

	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "log:0" {
			return data
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xFF
		return flipped
	})

	salvRep, err := New(fs, Config{}).Analyze()
	if err == nil {
		t.Fatal("strict analysis succeeded on a corrupt log")
	}
	var dmg *trace.SalvageReport
	if !errors.As(err, &dmg) || dmg.CorruptBlocks == 0 || salvRep == nil {
		t.Fatalf("salvage analysis failed: %v", err)
	}
	st := salvRep.Stats
	if !st.Partial() {
		t.Fatalf("corrupt trace not reported partial: %+v", st)
	}
	if st.IntervalsQuarantined == 0 || st.IntervalsQuarantined >= st.Intervals {
		t.Fatalf("quarantine off the mark: %+v", st)
	}
	if salvRep.Len() == 0 {
		t.Fatalf("no races recovered from the healthy remainder:\n%s", salvRep)
	}
	if got, want := raceSites(salvRep), raceSites(cleanRep); !sitesEqual(got, want) {
		t.Fatalf("salvaged races %v differ from clean run %v", got, want)
	}
}

// TestSalvageTornMeta truncates one slot's meta stream: the intervals whose
// records were lost are quarantined (their log events have no home and are
// dropped), everything else still analyzes.
func TestSalvageTornMeta(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "meta:0" {
			return data
		}
		return data[:len(data)/2]
	})

	salvRep, err := New(fs, Config{}).Analyze()
	if !errors.Is(err, trace.ErrTraceDamaged) || salvRep == nil {
		t.Fatalf("salvage analysis failed: %v", err)
	}
	st := salvRep.Stats
	if st.TruncatedSlots == 0 {
		t.Fatalf("torn meta not counted as a truncated slot: %+v", st)
	}
	if !st.Partial() {
		t.Fatalf("torn meta not reported partial: %+v", st)
	}
	if salvRep.Len() == 0 {
		t.Fatalf("no races recovered despite slot 1 being intact:\n%s", salvRep)
	}
}

// TestSalvageCleanTrace pins the no-damage invariant: on an intact trace
// the analysis returns no error, notes nothing, and leaves every salvage
// coverage stat at zero — single-pass and batched alike.
func TestSalvageCleanTrace(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	single, err := New(mem, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	batched, err := New(mem, Config{SubtreeBatch: 1}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*report.Report{single, batched} {
		st := rep.Stats
		if st.Partial() || st.IntervalsQuarantined != 0 || st.CorruptBlocks != 0 ||
			st.TruncatedSlots != 0 || st.SalvagedBytes != 0 || st.LostBytes != 0 {
			t.Fatalf("salvage stats set on an intact trace: %+v", st)
		}
		if n := rep.Notes(); len(n) != 0 {
			t.Fatalf("notes on an intact trace: %q", n)
		}
	}
	if single.Len() == 0 || !sitesEqual(raceSites(batched), raceSites(single)) {
		t.Fatalf("batched analysis diverges on a clean trace:\nsingle:\n%s\nbatched:\n%s", single, batched)
	}
}

// TestDamageNotesDeterministic: the notes of one damaged trace come out in
// one order — slot, then offset — whatever the worker count and however
// often it is analyzed.
func TestDamageNotesDeterministic(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "log:0" && name != "log:1" {
			return data
		}
		damaged := append([]byte(nil), data...)
		for _, at := range []int{len(damaged) / 4, len(damaged) / 2} {
			damaged[at] ^= 0xFF
		}
		return damaged[:len(damaged)-len(damaged)/8]
	})
	var want []string
	for _, workers := range []int{1, 4} {
		for i := 0; i < 20; i++ {
			rep, err := New(fs, Config{Workers: workers}).Analyze()
			if !errors.Is(err, trace.ErrTraceDamaged) {
				t.Fatalf("workers %d: %v", workers, err)
			}
			got := rep.Notes()
			if want == nil {
				if len(got) < 4 {
					t.Fatalf("expected notes for damage in two slots, got %q", got)
				}
				want = got
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers %d run %d: notes\n%q\nwant\n%q", workers, i, got, want)
			}
		}
	}
}

// TestParentCycleQuarantined: damaged records can make regions each
// other's parents. The cycle is quarantined with a note — the hereditary
// quarantine walk must not follow it forever.
func TestParentCycleQuarantined(t *testing.T) {
	metas := []trace.Meta{
		{PID: 1, PPID: 2, Span: 2, Level: 2, DataSize: 10},
		{PID: 2, PPID: 1, Span: 2, Level: 2, DataBegin: 10, DataSize: 10},
		{PID: 3, PPID: trace.NoParent, Span: 2, Level: 1, DataBegin: 20, DataSize: 10},
	}
	done := make(chan *structure)
	go func() {
		s := newStructure()
		s.assemble([]slotRecords{{slot: 0, metas: metas}}, nil)
		done <- s
	}()
	select {
	case s := <-done:
		if !s.regions[1].quarantined || !s.regions[2].quarantined || s.regions[3].quarantined {
			t.Fatalf("quarantine: 1=%v 2=%v 3=%v", s.regions[1].quarantined, s.regions[2].quarantined, s.regions[3].quarantined)
		}
		if len(s.damage) == 0 {
			t.Fatal("parent cycle not recorded as damage")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("assemble did not return on a parent cycle")
	}
}

// TestLyingRawLengthBatched: a checksum-clean log block whose raw length
// was hit ends the stream of the pass that decodes it. Under SubtreeBatch
// 1 the second region's pass skips that block, takes the lying length on
// trust and reads on at shifted offsets, which would move slot 0's
// post-barrier reads into its pre-barrier intervals. The first pass's
// truncation point must win: no invented race, and the same coverage
// stats as the single-pass analysis, which decodes the block and stops
// there.
func TestLyingRawLengthBatched(t *testing.T) {
	mem := trace.NewMemStore()
	col := rt.New(mem, rt.Config{Synchronous: true, MaxEvents: 128, Codec: compress.Raw{}})
	ww := pcreg.Site("lying-len:ww")
	wr, rd, own := pcreg.Site("lying-len:write"), pcreg.Site("lying-len:read"), pcreg.Site("lying-len:own")
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	shared, _ := space.AllocF64(64)
	handoff, _ := space.AllocF64(64)
	private, _ := space.AllocF64(64)
	rtm.Parallel(2, func(th *omp.Thread) { // a write-write race on shared
		for round := 0; round < 20; round++ {
			for i := 0; i < 64; i++ {
				th.StoreF64(shared, i, 1, ww)
			}
			th.Barrier()
		}
	})
	rtm.Parallel(2, func(th *omp.Thread) { // a race-free hand-off
		for round := 0; round < 20; round++ {
			for i := 0; i < 64; i++ {
				if th.ID() == 1 {
					th.StoreF64(handoff, i, 1, wr)
				} else {
					th.StoreF64(private, i, 1, own)
				}
			}
			th.Barrier()
			if th.ID() == 0 {
				for i := 0; i < 64; i++ {
					th.LoadF64(handoff, i, rd)
				}
			}
			th.Barrier()
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := New(mem, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() == 0 {
		t.Fatal("clean run found no races; workload broken")
	}

	// Shrink the raw length of the block holding slot 0's logical
	// position total/4 — mid first region — by the top bit of its last
	// uvarint byte.
	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "log:0" {
			return data
		}
		type block struct{ lenAt, lenEnd, start uint64 }
		var blocks []block
		var logical uint64
		for off := len("SWL2\x00"); off < len(data); {
			rawLen, n := binary.Uvarint(data[off:])
			compLen, m := binary.Uvarint(data[off+n:])
			blocks = append(blocks, block{uint64(off), uint64(off + n), logical})
			logical += rawLen
			off += n + m + 1 + 4 + int(compLen)
		}
		b := blocks[0]
		for _, c := range blocks {
			if c.start <= logical/4 {
				b = c
			}
		}
		if b.start == 0 || b.lenEnd-b.lenAt < 2 {
			t.Fatalf("no multi-byte raw length mid first region: %+v", b)
		}
		hit := append([]byte(nil), data...)
		last := hit[b.lenEnd-1]
		hit[b.lenEnd-1] = last &^ (1 << (bits.Len8(last) - 1))
		return hit
	})
	single, serr := New(fs, Config{}).Analyze()
	batched, berr := New(fs, Config{SubtreeBatch: 1}).Analyze()
	for _, err := range []error{serr, berr} {
		if !errors.Is(err, trace.ErrTraceDamaged) {
			t.Fatalf("lying raw length not reported as damage: %v", err)
		}
	}
	want := raceSites(clean)
	for _, rep := range []*report.Report{single, batched} {
		for _, got := range raceSites(rep) {
			if !slices.Contains(want, got) {
				t.Fatalf("invented race %v (clean %v):\n%s", got, want, rep)
			}
		}
	}
	if single.Stats.TruncatedSlots == 0 || single.Stats.IntervalsQuarantined == 0 {
		t.Fatalf("lying raw length neither truncated nor quarantined: %+v", single.Stats)
	}
	// The solver memo's counters depend on the order pairs are compared.
	coverage := func(st report.Stats) report.Stats {
		st.SolverCalls, st.SolverCacheHits, st.SolverCacheMisses, st.SitesSuppressed = 0, 0, 0, 0
		return st
	}
	if coverage(batched.Stats) != coverage(single.Stats) {
		t.Fatalf("batched stats\n%+v\nwant the single pass's\n%+v", batched.Stats, single.Stats)
	}
}

// TestDamagedPCTableOnce: a damaged pc table is damage — a note and the
// typed error — and analyzing twice with one Analyzer lists it once each
// time.
func TestDamagedPCTableOnce(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 4); err != nil {
		t.Fatal(err)
	}
	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name == "aux:pctable" {
			return []byte("not a pc table\n")
		}
		return data
	})
	a := New(fs, Config{})
	var want []string
	for i := 0; i < 2; i++ {
		rep, err := a.Analyze()
		if !errors.Is(err, trace.ErrTraceDamaged) || rep == nil || rep.Len() == 0 {
			t.Fatalf("run %d: want races beside the damage, got %v", i, err)
		}
		if want == nil {
			want = rep.Notes()
		} else if got := rep.Notes(); !slices.Equal(got, want) {
			t.Fatalf("second run notes %q, first %q", got, want)
		}
	}
	if len(want) != 1 {
		t.Fatalf("want one note for the pc table, got %q", want)
	}
}
