package core

import (
	"context"
	"fmt"
	"testing"

	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/rt"
	"sword/internal/trace"
)

// liveInputs reads every slot's records from a finished store, as the
// tails would have delivered them, and lists every barrier group.
func liveInputs(tb testing.TB, store trace.Store) ([]SlotRecords, []IntervalGroup) {
	tb.Helper()
	slots, err := store.Slots()
	if err != nil {
		tb.Fatal(err)
	}
	var inputs []SlotRecords
	var groups []IntervalGroup
	seen := map[IntervalGroup]bool{}
	for _, slot := range slots {
		src, err := store.OpenMeta(slot)
		if err != nil {
			tb.Fatal(err)
		}
		metas, certs, err := trace.ReadAllMetaCerts(src)
		if err != nil {
			tb.Fatal(err)
		}
		inputs = append(inputs, SlotRecords{Slot: slot, Metas: metas, Certs: certs})
		for _, m := range metas {
			if g := (IntervalGroup{PID: m.PID, BID: m.BID}); !seen[g] {
				seen[g] = true
				groups = append(groups, g)
			}
		}
	}
	return inputs, groups
}

// TestFinalizeRebuildsChangedShape: a live round's counts for an interval
// are trusted at finalize only if the finished structure builds the
// interval the same way. Here the round trusts a clean loop certificate
// and builds its intervals without the dropped accesses; the records
// Finalize sees then lack the parent of a nested region, which is
// quarantined, so no certificate can be trusted any more and the dropped
// accesses must be rebuilt. The result must equal a Finalize that no
// round preceded.
func TestFinalizeRebuildsChangedShape(t *testing.T) {
	pc := pcreg.Site("liveshape:loop")
	store := collectFiltered(t, func(rtm *omp.Runtime, space *memsim.Space) {
		arr, _ := space.AllocF64(64)
		loop := omp.NewAffineLoop()
		ref := loop.WriteF64(arr, 1, 0, pc)
		rtm.Parallel(2, func(th *omp.Thread) {
			th.ForAffine(loop, 0, 64, func(it *omp.AffineIter) { it.StoreF64(ref, 1) })
		})
		rtm.Parallel(2, func(th *omp.Thread) {
			if th.ID() == 1 {
				th.Parallel(2, func(in *omp.Thread) { in.StoreF64(arr, in.ID(), 2, pc) })
			}
		})
	})
	inputs, groups := liveInputs(t, store)
	var parent uint64
	for _, in := range inputs {
		for _, m := range in.Metas {
			if m.PPID != trace.NoParent {
				parent = m.PPID
			}
		}
	}
	if parent == 0 {
		t.Fatal("premise: want a nested region")
	}
	var orphaned []SlotRecords
	for _, in := range inputs {
		out := SlotRecords{Slot: in.Slot, Certs: in.Certs}
		for _, m := range in.Metas {
			if m.PID != parent {
				out.Metas = append(out.Metas, m)
			}
		}
		orphaned = append(orphaned, out)
	}
	ctx := context.Background()
	l := NewLive(Config{Workers: 1})
	all := map[IntervalGroup]bool{}
	for _, g := range groups {
		all[g] = true
	}
	st, err := l.Step(ctx, store, inputs, all)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired == 0 {
		t.Fatal("premise: want the round to trust the certificate")
	}
	got, gerr := l.Finalize(ctx, store, orphaned)
	want, werr := NewLive(Config{Workers: 1}).Finalize(ctx, store, orphaned)
	if got == nil || want == nil || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("finalize outcomes differ: %v / %v", gerr, werr)
	}
	if want.Stats.PairsRetiredStatic != 0 || want.Stats.IntervalsQuarantined == 0 {
		t.Fatalf("premise: want the certificate distrusted and the orphan quarantined: %+v", want.Stats)
	}
	if reportText(got) != reportText(want) || got.Stats.IntervalPairs != want.Stats.IntervalPairs {
		t.Fatalf("after a live round:\n%s%+v\nwithout one:\n%s%+v", reportText(got), got.Stats, reportText(want), want.Stats)
	}
}

// BenchmarkLiveStep measures one live round: a LiveAnalyzer steps one
// sealed barrier group of a finished trace per iteration (groups round
// robin; stepping a group again repeats its work), with as many workers
// as the trace has slots. Run with -benchmem: the allocations per Step
// are the round's structure, trees and pairs, not its block buffers,
// which the LiveAnalyzer keeps for the whole run.
func BenchmarkLiveStep(b *testing.B) {
	for _, threads := range []int{2, 8} {
		b.Run(fmt.Sprintf("slots=%d", threads), func(b *testing.B) {
			store := trace.NewMemStore()
			col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 4096})
			rtm := omp.New(omp.WithTool(col))
			x, _ := memsim.NewSpace(nil).AllocF64(threads * 2048)
			pc := pcreg.Site("livestep:write")
			rtm.Parallel(threads, func(th *omp.Thread) {
				for g := 0; g < 8; g++ {
					for i := 0; i < 2048; i++ {
						th.StoreF64(x, th.ID()*2048+i, float64(g), pc)
					}
					th.Barrier()
				}
			})
			if err := col.Close(); err != nil {
				b.Fatal(err)
			}
			inputs, groups := liveInputs(b, store)
			l := NewLive(Config{Workers: threads})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := groups[i%len(groups)]
				if _, err := l.Step(ctx, store, inputs, map[IntervalGroup]bool{g: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
