package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// collectStore runs program under the collector and returns its store.
func collectStore(t *testing.T, program func(rtm *omp.Runtime, space *memsim.Space)) trace.Store {
	t.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true})
	rtm := omp.New(omp.WithTool(col))
	program(rtm, memsim.NewSpace(nil))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// raceKeys keys a report's races the way dedup does: unordered PC pair
// plus write bits. Per-race Count and witness Addr legitimately vary with
// scheduling, the race set must not.
func raceKeys(rep *report.Report) map[string]bool {
	out := make(map[string]bool)
	for _, r := range rep.Races() {
		a, b := r.First, r.Second
		if a.PC > b.PC || (a.PC == b.PC && a.Write && !b.Write) {
			a, b = b, a
		}
		out[fmt.Sprintf("%x|%x|%v|%v", a.PC, b.PC, a.Write, b.Write)] = true
	}
	return out
}

// planPrograms are the differential workloads: flat parallel regions,
// multiple top-level regions, and tasking (per-fragment units).
var planPrograms = map[string]func(rtm *omp.Runtime, space *memsim.Space){
	"flat-racy": func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(8)
		pcW := pcreg.Site("plan:flat-write")
		rtm.Parallel(4, func(th *omp.Thread) {
			for round := 0; round < 3; round++ {
				th.StoreF64(x, round, float64(th.ID()), pcW)
				th.Barrier()
			}
		})
	},
	"multi-region": func(rtm *omp.Runtime, space *memsim.Space) {
		shared, _ := space.AllocF64(16)
		arr, _ := space.AllocF64(128)
		pcR := pcreg.Site("plan:region-race")
		pcC := pcreg.Site("plan:region-clean")
		rtm.Run(func(initial *omp.Thread) {
			for reg := 0; reg < 4; reg++ {
				reg := reg
				initial.Parallel(3, func(th *omp.Thread) {
					if reg == 2 {
						th.StoreF64(shared, 0, 1, pcR)
					} else {
						th.For(0, 128, func(i int) {
							th.StoreF64(arr, i, float64(reg), pcC)
						})
					}
				})
			}
		})
	},
	"tasking": func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(4)
		pcT := pcreg.Site("plan:task-write")
		pcC := pcreg.Site("plan:cont-read")
		pcPost := pcreg.Site("plan:post-read")
		rtm.Parallel(2, func(th *omp.Thread) {
			th.Task(func(tt *omp.Thread) {
				tt.StoreF64(x, th.ID(), 1, pcT)
			})
			th.LoadF64(x, th.ID(), pcC) // races with the task
			th.TaskWait()
			th.LoadF64(x, th.ID(), pcPost) // ordered after the wait
		})
	},
}

// TestBatchAnalyzerMatchesAnalyze: partitioning the plan into batches of
// any size and merging the per-batch reports must reproduce the
// single-process race set and dedup'd race count exactly.
func TestBatchAnalyzerMatchesAnalyze(t *testing.T) {
	for name, program := range planPrograms {
		t.Run(name, func(t *testing.T) {
			store := collectStore(t, program)
			base, err := New(store, Config{}).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			for _, batchSize := range []int{1, 3, 1 << 30} {
				b, err := NewBatchAnalyzer(store, Config{})
				if err != nil {
					t.Fatal(err)
				}
				units := b.Units()
				merged := report.New()
				for lo := 0; lo < len(units) || lo == 0; lo += batchSize {
					hi := min(lo+batchSize, len(units))
					rep, err := b.AnalyzeUnits(context.Background(), units[lo:hi])
					if err != nil {
						t.Fatalf("batch [%d:%d]: %v", lo, hi, err)
					}
					for _, r := range rep.Races() {
						merged.Add(r)
					}
					if len(units) == 0 {
						break
					}
				}
				if merged.Len() != base.Len() {
					t.Fatalf("batch size %d: %d dedup'd races, want %d\nmerged:\n%s\nbase:\n%s",
						batchSize, merged.Len(), base.Len(), merged.String(), base.String())
				}
				got, want := raceKeys(merged), raceKeys(base)
				for k := range want {
					if !got[k] {
						t.Fatalf("batch size %d: missing race %s", batchSize, k)
					}
				}
			}
		})
	}
}

// TestBatchAnalyzerPlanDeterministic: two independent planners over the
// same store must produce the identical unit-pair schedule — the property
// that lets coordinator and workers name work by UnitID at all.
func TestBatchAnalyzerPlanDeterministic(t *testing.T) {
	store := collectStore(t, planPrograms["multi-region"])
	b1, err := NewBatchAnalyzer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBatchAnalyzer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := b1.Units(), b2.Units()
	if len(u1) == 0 {
		t.Fatal("empty plan for a workload with accesses")
	}
	if len(u1) != len(u2) {
		t.Fatalf("plans differ in length: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, u1[i], u2[i])
		}
	}
}

// TestBatchAnalyzerStructureStats: the coordinator-side structure counts
// must match what the single-process analyzer reports.
func TestBatchAnalyzerStructureStats(t *testing.T) {
	store := collectStore(t, planPrograms["multi-region"])
	base, err := New(store, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatchAnalyzer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := b.StructureStats()
	if st.Intervals != base.Stats.Intervals || st.Regions != base.Stats.Regions {
		t.Fatalf("structure stats %d intervals / %d regions, want %d / %d",
			st.Intervals, st.Regions, base.Stats.Intervals, base.Stats.Regions)
	}
}

// TestBatchAnalyzerCancel: a pre-cancelled context aborts AnalyzeUnits
// with ctx.Err() before any comparison work.
func TestBatchAnalyzerCancel(t *testing.T) {
	store := collectStore(t, planPrograms["flat-racy"])
	b, err := NewBatchAnalyzer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.AnalyzeUnits(ctx, b.Units()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestBatchAnalyzerDamagedTrace: batches cannot quarantine, so damage is
// the typed error — from the planner for a torn meta stream, and from
// AnalyzeUnits for a corrupt log block.
func TestBatchAnalyzerDamagedTrace(t *testing.T) {
	store := collectStore(t, planPrograms["flat-racy"])
	damaged := func(file string, mutate func([]byte) []byte) trace.Store {
		fs := trace.NewFaultStore(store)
		fs.SetMutateRead(func(name string, data []byte) []byte {
			if name != file {
				return data
			}
			return mutate(append([]byte(nil), data...))
		})
		return fs
	}
	tornMeta := damaged("meta:0", func(b []byte) []byte { return b[:len(b)-3] })
	if _, err := NewBatchAnalyzer(tornMeta, Config{}); !errors.Is(err, trace.ErrTraceDamaged) {
		t.Fatalf("NewBatchAnalyzer on a torn meta stream: %v", err)
	}
	corruptLog := damaged("log:0", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	b, err := NewBatchAnalyzer(corruptLog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AnalyzeUnits(context.Background(), b.Units()); !errors.Is(err, trace.ErrTraceDamaged) {
		t.Fatalf("AnalyzeUnits over a corrupt log: %v", err)
	}
}

// TestBatchAnalyzerUnknownUnit: a unit id that resolves nowhere is an
// error, not silent no-work — the coordinator must find out its plan and
// the worker's structure disagree.
func TestBatchAnalyzerUnknownUnit(t *testing.T) {
	store := collectStore(t, planPrograms["flat-racy"])
	b, err := NewBatchAnalyzer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bogus := PairUnit{A: UnitID{Key: trace.IntervalKey{PID: 999, TID: 999, BID: 999}}}
	if _, err := b.AnalyzeUnits(context.Background(), []PairUnit{bogus}); err == nil {
		t.Fatal("AnalyzeUnits accepted an unknown unit id")
	}
}
