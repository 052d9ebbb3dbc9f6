package core

import (
	"context"
	"testing"

	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/rt"
	"sword/internal/trace"
)

// buildFromProgram runs a program under the collector and recovers its
// structure for label-level inspection.
func buildFromProgram(t *testing.T, program func(rtm *omp.Runtime, space *memsim.Space)) *structure {
	t.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true})
	rtm := omp.New(omp.WithTool(col))
	program(rtm, memsim.NewSpace(nil))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := buildStructure(store)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize interval trees so pairing (which skips empty units) sees
	// the accesses.
	a := &Analyzer{store: store}
	if err := a.buildTrees(context.Background(), s, 1, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	return s
}

// lineageConcurrent reimplements the analyzer's pairing decision for two
// intervals (the rule enumeratePairs applies in bulk), for comparison with
// the OSL judgment.
func lineageConcurrent(s *structure, a, b *interval) bool {
	// Pre-filtering is off: this helper asks about structural concurrency,
	// not whether the accesses could race.
	pairs, _, _ := enumeratePairs(s, nil, true, false, false)
	for _, p := range pairs {
		x, y := p[0].iv, p[1].iv
		if (x == a && y == b) || (x == b && y == a) {
			return true
		}
	}
	return false
}

// TestOSLLabelsMatchTableI: reconstructed labels carry the offsets the
// runtime's own labels had (Offset = tid + bid·span).
func TestOSLLabelsMatchTableI(t *testing.T) {
	pc := pcreg.Site("osl-test:site")
	s := buildFromProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(8)
		rtm.Parallel(3, func(th *omp.Thread) {
			th.StoreF64(x, th.ID(), 1, pc)
			th.Barrier()
			th.StoreF64(x, th.ID()+3, 1, pc)
		})
	})
	for key, iv := range s.intervals {
		label := intervalLabel(iv)
		if got := label.ThreadID(); got != key.TID {
			t.Errorf("interval %+v: label tid %d", key, got)
		}
		if got := label.Epoch(); got != key.BID {
			t.Errorf("interval %+v: label epoch %d, want bid %d", key, got, key.BID)
		}
		if label.Depth() != 2 {
			t.Errorf("interval %+v: depth %d", key, label.Depth())
		}
	}
}

// TestOSLAgreesOnNestedForkJoin: within one top-level region whose nested
// regions all hang off barrier interval 0 (the structure of Figure 2,
// where OSL is sound), the OSL judgment and the analyzer's lineage
// judgment coincide on every interval pair. Cross-bid hang-offs (the
// blind spot) and sequentially composed top-level regions (which labels
// reconstructed without join advances cannot order) are pinned by
// TestOSLBlindSpot instead.
func TestOSLAgreesOnNestedForkJoin(t *testing.T) {
	pc := pcreg.Site("osl-test:agree")
	s := buildFromProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(64)
		rtm.Parallel(3, func(outer *omp.Thread) {
			outer.StoreF64(x, outer.ID(), 1, pc)
			if outer.ID() != 2 {
				outer.Parallel(2, func(in *omp.Thread) {
					in.StoreF64(x, 8+outer.ID()*2+in.ID(), 1, pc)
				})
			}
			outer.StoreF64(x, 16+outer.ID(), 1, pc)
		})
	})
	ivs := make([]*interval, 0, len(s.intervals))
	for _, iv := range s.intervals {
		if len(iv.units) > 0 {
			ivs = append(ivs, iv)
		}
	}
	checked := 0
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			lin := lineageConcurrent(s, a, b)
			oslV := oslConcurrent(a, b)
			if lin != oslV {
				t.Errorf("divergence on %+v vs %+v: lineage=%v osl=%v",
					a.key, b.key, lin, oslV)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d pairs compared", checked)
	}
}

// TestOSLBlindSpot demonstrates the documented divergence: a nested region
// forked in barrier interval 0 versus another thread's interval *after*
// the barrier. The barrier orders them (the inner region joins before its
// encountering thread reaches the barrier), which the lineage judgment
// captures; pure offset-span labels compare incongruent offsets and call
// them concurrent — a false positive the paper's meta-data pairing must
// avoid, as ours does.
func TestOSLBlindSpot(t *testing.T) {
	pc := pcreg.Site("osl-test:blindspot")
	s := buildFromProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(8)
		rtm.Parallel(2, func(outer *omp.Thread) {
			if outer.ID() == 1 {
				outer.Parallel(2, func(in *omp.Thread) {
					in.StoreF64(x, in.ID(), 1, pc) // nested, in bid 0
				})
			}
			outer.Barrier()
			outer.StoreF64(x, 4+outer.ID(), 1, pc) // bid 1
		})
	})
	var nested, postBarrier *interval
	for _, iv := range s.intervals {
		if iv.region.level == 2 && iv.key.TID == 0 {
			nested = iv
		}
		if iv.region.level == 1 && iv.key.BID == 1 && iv.key.TID == 0 {
			postBarrier = iv
		}
	}
	if nested == nil || postBarrier == nil {
		t.Fatal("intervals not found")
	}
	if lineageConcurrent(s, nested, postBarrier) {
		t.Fatal("lineage judgment must order the nested region before the post-barrier interval")
	}
	if !oslConcurrent(nested, postBarrier) {
		t.Fatal("expected the documented OSL blind spot (labels incongruent across the barrier)")
	}
}
