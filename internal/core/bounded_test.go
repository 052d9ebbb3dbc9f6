package core

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"sword/internal/itree"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// Units are finalized when the slot cursor passes their last fragment,
// not at the end of the slot's log. These tests pin that the early point
// never cuts a unit short: every construction path must report, byte for
// byte, what the probe engine reports on the same trace. The builder path
// panics on an insert into a finished unit, so a unit finalized too early
// cannot go unnoticed there.

// collectFiltered runs program under the collector with small blocks and
// the static filter armed, so certificates are recorded.
func collectFiltered(t *testing.T, program func(rtm *omp.Runtime, space *memsim.Space)) *trace.MemStore {
	t.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 64, StaticFilter: true})
	rtm := omp.New(omp.WithTool(col))
	program(rtm, memsim.NewSpace(nil))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// reportText is the part of a report every construction path must agree
// on: the rendered races and notes plus the structural counts. Pair counts
// are left out: the probe engine enumerates without the summary prefilter.
func reportText(rep *report.Report) string {
	st := rep.Stats
	return fmt.Sprintf("%sintervals %d nodes %d accesses %d\n",
		rep.String(), st.Intervals, st.TreeNodes, st.Accesses)
}

// liveReport analyzes store through the live Step path: one round over
// every barrier group of the finished trace, then Finalize.
func liveReport(t *testing.T, store trace.Store, cfg Config) *report.Report {
	t.Helper()
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	var inputs []SlotRecords
	groups := map[IntervalGroup]bool{}
	for _, slot := range slots {
		src, err := store.OpenMeta(slot)
		if err != nil {
			t.Fatal(err)
		}
		metas, certs, err := trace.ReadAllMetaCerts(src)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, SlotRecords{Slot: slot, Metas: metas, Certs: certs})
		for _, m := range metas {
			groups[IntervalGroup{PID: m.PID, BID: m.BID}] = true
		}
	}
	l := NewLive(cfg)
	if _, err := l.Step(context.Background(), store, inputs, groups); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Finalize(context.Background(), store, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkAllPaths compares the post-mortem, SubtreeBatch and live reports
// against the probe engine's, all with one worker.
func checkAllPaths(t *testing.T, store trace.Store) *report.Report {
	t.Helper()
	ref, err := New(store, Config{Workers: 1, ProbeEngine: true}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(ref)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Workers: 1}},
		{"nocompact", Config{Workers: 1, NoCompact: true}},
		{"batch1", Config{Workers: 1, SubtreeBatch: 1}},
	} {
		rep, err := New(store, tc.cfg).Analyze()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.cfg.NoCompact {
			// Uncompacted runs hold more nodes; only the races must agree.
			if rep.String() != ref.String() {
				t.Fatalf("%s: report differs from probe engine:\n%s\nwant\n%s", tc.name, rep, ref)
			}
			continue
		}
		if got := reportText(rep); got != want {
			t.Fatalf("%s: report differs from probe engine:\n%s\nwant\n%s", tc.name, got, want)
		}
	}
	if got := reportText(liveReport(t, store, Config{Workers: 1})); got != want {
		t.Fatalf("live: report differs from probe engine:\n%s\nwant\n%s", got, want)
	}
	return ref
}

// TestEarlyFinalizeZeroLengthFragments: a team master that forks a nested
// region before touching memory keeps a zero-length first fragment, and
// when the nested region records nothing either, the master's next
// fragment starts at the same position. The unit must close at its
// largest-end fragment, not at the zero-length one.
func TestEarlyFinalizeZeroLengthFragments(t *testing.T) {
	pcW := pcreg.Site("earlyfin:zero-write")
	pcR := pcreg.Site("earlyfin:zero-read")
	store := runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(64)
		rtm.Parallel(2, func(th *omp.Thread) {
			th.Parallel(2, func(*omp.Thread) {}) // nothing recorded inside
			// Long enough to span several 64-event blocks.
			for i := 0; i < 400; i++ {
				th.StoreF64(x, 2+(th.ID()+2*i)%60, 1, pcW)
			}
			if th.ID() == 0 {
				th.StoreF64(x, 0, 1, pcW)
			} else {
				th.LoadF64(x, 0, pcR)
			}
		})
	})
	s, err := buildStructure(store)
	if err != nil {
		t.Fatal(err)
	}
	zero, shared := false, false
	for _, iv := range s.intervals {
		begins := map[uint64]int{}
		for _, f := range iv.frags {
			zero = zero || f.size == 0
			begins[f.begin]++
			shared = shared || begins[f.begin] > 1
		}
	}
	if !zero || !shared {
		t.Fatalf("premise: want a zero-length fragment (%v) and fragments of one interval sharing a begin (%v)", zero, shared)
	}
	ref := checkAllPaths(t, store)
	if ref.Len() == 0 {
		t.Fatalf("expected the master/worker race on x[0]:\n%s", ref)
	}
}

// TestEarlyFinalizeTaskParentInterleaved: a task parent's per-fragment
// units interleave in the log with its tasks' and nested regions'
// fragments; each unit closes at its own fragment while the parent's next
// fragments are still ahead.
func TestEarlyFinalizeTaskParentInterleaved(t *testing.T) {
	pcT := pcreg.Site("earlyfin:task-write")
	pcP := pcreg.Site("earlyfin:parent-read")
	pcN := pcreg.Site("earlyfin:nested-write")
	store := runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(64)
		rtm.Parallel(2, func(th *omp.Thread) {
			for k := 0; k < 4; k++ {
				th.StoreF64(x, 8+th.ID(), 1, pcP)
				th.Task(func(tt *omp.Thread) {
					tt.StoreF64(x, 16+k, 1, pcT)
				})
				th.LoadF64(x, 16+k, pcP) // before the taskwait: races with the task
				th.Parallel(2, func(in *omp.Thread) {
					in.StoreF64(x, 32+4*th.ID()+in.ID(), 1, pcN)
				})
				th.TaskWait()
			}
		})
	})
	s, err := buildStructure(store)
	if err != nil {
		t.Fatal(err)
	}
	interleaved := false
	for _, ivs := range s.bySlot {
		for _, iv := range ivs {
			if !iv.taskParent || len(iv.frags) < 2 {
				continue
			}
			first, last := iv.frags[0].begin, iv.frags[len(iv.frags)-1].begin
			for _, other := range ivs {
				for _, f := range other.frags {
					if other != iv && f.size > 0 && f.begin > first && f.begin < last {
						interleaved = true
					}
				}
			}
		}
	}
	if !interleaved {
		t.Fatal("premise: want a task parent whose fragments interleave with other intervals' fragments")
	}
	if ref := checkAllPaths(t, store); ref.Len() == 0 {
		t.Fatalf("expected the unwaited task race:\n%s", ref)
	}
}

// TestEarlyFinalizeVoidedCertificate: a raw access inside a certified loop
// voids its certificate, so the accesses the runtime dropped are rebuilt
// from it. They must land in their unit before that unit finalizes: the
// race between a dropped write and the other thread's raw read is only
// visible through them.
func TestEarlyFinalizeVoidedCertificate(t *testing.T) {
	pcLoop := pcreg.Site("earlyfin:cert-write")
	pcRaw := pcreg.Site("earlyfin:raw-read")
	program := func(rtm *omp.Runtime, space *memsim.Space) {
		arr, _ := space.AllocF64(64)
		loop := omp.NewAffineLoop()
		ref := loop.WriteF64(arr, 1, 0, pcLoop)
		rtm.Parallel(2, func(th *omp.Thread) {
			for round := 0; round < 3; round++ {
				th.ForAffine(loop, 0, 32, func(it *omp.AffineIter) {
					it.StoreF64(ref, 1)
					if it.I() == 16 {
						th.LoadF64(arr, 0, pcRaw) // thread 1: reads thread 0's dropped write
					}
				})
			}
		})
	}
	store := collectFiltered(t, program)
	s, err := buildStructure(store)
	if err != nil {
		t.Fatal(err)
	}
	voided := 0
	for _, iv := range s.intervals {
		if iv.cert != nil && !iv.cert.retire {
			voided++
		}
	}
	if voided == 0 {
		t.Fatal("premise: want intervals under a voided certificate")
	}
	ref := checkAllPaths(t, store)
	sites := map[string]bool{}
	for _, r := range ref.Races() {
		sites[r.First.Source+"|"+r.Second.Source] = true
	}
	if !sites["earlyfin:cert-write|earlyfin:raw-read"] && !sites["earlyfin:raw-read|earlyfin:cert-write"] {
		t.Fatalf("dropped write vs raw read race missing:\n%s", ref)
	}
	// The filter-off trace of the same program reports the same races.
	plain := runProgram(t, program)
	off, err := New(plain, Config{Workers: 1}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if off.String() != ref.String() {
		t.Fatalf("filter on:\n%s\nfilter off:\n%s", ref, off)
	}
}

// TestOpenUnitsBounded: a slot of 1 000 sequential barrier intervals keeps
// at most two units open at once instead of all of them until the log
// ends.
func TestOpenUnitsBounded(t *testing.T) {
	pc := pcreg.Site("earlyfin:sequential")
	store := runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(4)
		rtm.Parallel(2, func(th *omp.Thread) {
			for i := 0; i < 1000; i++ {
				th.StoreF64(x, th.ID(), float64(i), pc)
				th.Barrier()
			}
		})
	})
	m := obs.New()
	rep, err := New(store, Config{Workers: 1, Obs: m}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Intervals < 2000 {
		t.Fatalf("premise: want 1 000 intervals per slot, got %d in total", rep.Stats.Intervals)
	}
	if peak := m.Gauge("core.open_units_peak").Load(); peak < 1 || peak > 2 {
		t.Fatalf("core.open_units_peak = %d, want 1 or 2", peak)
	}
}

// TestOneAccessBuilderBytes: builder accounting counts the bytes the
// finished runs hold — one Run for a one-access unit — not the slab the
// builder reserved while it was open.
func TestOneAccessBuilderBytes(t *testing.T) {
	pc := pcreg.Site("earlyfin:one-access")
	store := runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(4)
		rtm.Parallel(2, func(th *omp.Thread) {
			if th.ID() == 1 {
				th.StoreF64(x, 0, 1, pc)
			}
		})
	})
	m := obs.New()
	rep, err := New(store, Config{Workers: 1, Obs: m}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Accesses != 1 || rep.Stats.TreeNodes != 1 {
		t.Fatalf("premise: want one access in one run, got %d accesses, %d runs", rep.Stats.Accesses, rep.Stats.TreeNodes)
	}
	if got, want := m.Counter("core.run_builder_bytes").Load(), uint64(unsafe.Sizeof(itree.Run{})); got != want {
		t.Fatalf("core.run_builder_bytes = %d, want %d (one run)", got, want)
	}
}
