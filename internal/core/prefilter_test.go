package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// runProgram executes program under the collector with small blocks (so
// traces span many log blocks) and returns the store for repeated analysis
// under different configs.
func runProgram(t *testing.T, program func(rtm *omp.Runtime, space *memsim.Space)) *trace.MemStore {
	t.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	program(rtm, memsim.NewSpace(nil))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// mixedProgram is a randomized workload mixing every pre-filterable access
// shape — disjoint chunks, shared read-only data, all-atomic reductions,
// lock-protected updates — with genuinely racy rounds, across several
// barrier intervals and thread counts.
func mixedProgram(seed int64) func(rtm *omp.Runtime, space *memsim.Space) {
	return func(rtm *omp.Runtime, space *memsim.Space) {
		r := rand.New(rand.NewSource(seed))
		arr, _ := space.AllocF64(256)
		acc, _ := space.AllocF64(4)
		threads := 2 + r.Intn(3)
		rounds := 2 + r.Intn(4)
		var lock omp.Lock
		rtm.Parallel(threads, func(th *omp.Thread) {
			for round := 0; round < rounds; round++ {
				// The per-round shape must be a pure function of (seed,
				// round): every thread derives it from its own generator.
				tr := rand.New(rand.NewSource(seed*1000 + int64(round)))
				pc := pcreg.Site(fmt.Sprintf("prefilter:%d:%d", seed, round))
				switch tr.Intn(5) {
				case 0: // disjoint static chunks
					chunk := 256 / th.NumThreads()
					for i := th.ID() * chunk; i < (th.ID()+1)*chunk; i++ {
						th.StoreF64(arr, i, float64(i), pc)
					}
				case 1: // shared read-only sweep
					for i := 0; i < 64; i++ {
						th.LoadF64(arr, i, pc)
					}
				case 2: // all-atomic reduction
					for i := 0; i < 8; i++ {
						th.AtomicAddF64(acc, i%4, 1, pc)
					}
				case 3: // lock-protected shared updates
					for i := 0; i < 8; i++ {
						th.WithLock(&lock, func() {
							th.StoreF64(acc, i%4, 1, pc)
						})
					}
				default: // overlapping unordered writes: the races
					for i := 0; i < 16; i++ {
						th.StoreF64(arr, i, float64(th.ID()), pc)
					}
				}
				th.Barrier()
			}
		})
	}
}

// TestPrefilterKeepsRaceSet: across randomized workloads the pre-filter
// must never change the reported race set — the default analysis, the
// NoPrefilter ablation, and the probe-engine reference must agree exactly,
// while the filter demonstrably drops pairs somewhere in the seed range.
func TestPrefilterKeepsRaceSet(t *testing.T) {
	var totalDropped uint64
	for seed := int64(1); seed <= 30; seed++ {
		store := runProgram(t, mixedProgram(seed))
		def, err := New(store, Config{}).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		noPre, err := New(store, Config{NoPrefilter: true}).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		probe, err := New(store, Config{ProbeEngine: true}).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := raceSites(def), raceSites(noPre); !sitesEqual(got, want) {
			t.Fatalf("seed %d: prefilter changed the race set: %v vs %v", seed, got, want)
		}
		if got, want := raceSites(def), raceSites(probe); !sitesEqual(got, want) {
			t.Fatalf("seed %d: builder+prefilter disagree with the probe engine: %v vs %v", seed, got, want)
		}
		// The builder path must summarize the same accesses into the same
		// number of nodes the tree path produces.
		if def.Stats.TreeNodes != probe.Stats.TreeNodes || def.Stats.Accesses != probe.Stats.Accesses {
			t.Fatalf("seed %d: builder summarization diverged: %d nodes/%d accesses vs tree %d/%d",
				seed, def.Stats.TreeNodes, def.Stats.Accesses, probe.Stats.TreeNodes, probe.Stats.Accesses)
		}
		if noPre.Stats.PairsPrefiltered != 0 {
			t.Fatalf("seed %d: NoPrefilter still dropped %d pairs", seed, noPre.Stats.PairsPrefiltered)
		}
		if def.Stats.IntervalPairs+int(def.Stats.PairsPrefiltered) != noPre.Stats.IntervalPairs {
			t.Fatalf("seed %d: compared(%d)+dropped(%d) != unfiltered pairs(%d)",
				seed, def.Stats.IntervalPairs, def.Stats.PairsPrefiltered, noPre.Stats.IntervalPairs)
		}
		totalDropped += def.Stats.PairsPrefiltered
	}
	if totalDropped == 0 {
		t.Fatal("prefilter dropped nothing across every seed; the test exercises nothing")
	}
}

// TestPrefilterClauses pins each summary clause individually: a workload
// whose every pair is provably race-free through exactly one fact must be
// fully pre-filtered, and a racy control must not be touched.
func TestPrefilterClauses(t *testing.T) {
	cases := []struct {
		name    string
		program func(rtm *omp.Runtime, space *memsim.Space)
	}{
		{"read-only", func(rtm *omp.Runtime, space *memsim.Space) {
			arr, _ := space.AllocF64(64)
			rtm.Parallel(2, func(th *omp.Thread) {
				for i := 0; i < 64; i++ {
					th.LoadF64(arr, i, 1)
				}
			})
		}},
		{"all-atomic", func(rtm *omp.Runtime, space *memsim.Space) {
			acc, _ := space.AllocF64(1)
			rtm.Parallel(2, func(th *omp.Thread) {
				for i := 0; i < 16; i++ {
					th.AtomicAddF64(acc, 0, 1, 2)
				}
			})
		}},
		{"common-mutex", func(rtm *omp.Runtime, space *memsim.Space) {
			var lock omp.Lock
			acc, _ := space.AllocF64(1)
			rtm.Parallel(2, func(th *omp.Thread) {
				for i := 0; i < 8; i++ {
					th.WithLock(&lock, func() {
						th.StoreF64(acc, 0, float64(th.ID()), 3)
					})
				}
			})
		}},
		{"disjoint-boxes", func(rtm *omp.Runtime, space *memsim.Space) {
			arr, _ := space.AllocF64(64)
			rtm.Parallel(2, func(th *omp.Thread) {
				for i := th.ID() * 32; i < (th.ID()+1)*32; i++ {
					th.StoreF64(arr, i, 1, 4)
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := New(runProgram(t, tc.program), Config{}).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			wantRaces(t, rep, 0)
			if rep.Stats.PairsPrefiltered == 0 {
				t.Fatalf("no pair pre-filtered: %+v", rep.Stats)
			}
			if rep.Stats.IntervalPairs != 0 {
				t.Fatalf("%d pairs still compared on a fully filterable workload", rep.Stats.IntervalPairs)
			}
		})
	}
	t.Run("racy-control", func(t *testing.T) {
		rep, err := New(runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
			x, _ := space.AllocF64(1)
			rtm.Parallel(2, func(th *omp.Thread) {
				th.StoreF64(x, 0, float64(th.ID()), 5)
			})
		}), Config{}).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		wantRaces(t, rep, 1)
		if rep.Stats.PairsPrefiltered != 0 {
			t.Fatalf("prefilter dropped %d pairs on a racy workload", rep.Stats.PairsPrefiltered)
		}
	})
}

// TestPipelineMutexAcrossBlocks: with tiny log blocks, lock acquire,
// protected accesses, and release land in different blocks — the pipelined
// decoder must still apply them in log order, or the running mutex set
// would leak protection onto the unprotected cell (or drop it from the
// protected one). Exactly one race must survive: the unprotected cell.
func TestPipelineMutexAcrossBlocks(t *testing.T) {
	pcLocked := pcreg.Site("pipeline:locked")
	pcNaked := pcreg.Site("pipeline:naked")
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 4})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	shared, _ := space.AllocF64(2)
	var lock omp.Lock
	rtm.Parallel(2, func(th *omp.Thread) {
		for round := 0; round < 32; round++ {
			th.Acquire(&lock)
			// Enough protected accesses to straddle several 4-event blocks.
			for i := 0; i < 6; i++ {
				th.StoreF64(shared, 0, float64(th.ID()), pcLocked)
			}
			th.Release(&lock)
			th.StoreF64(shared, 1, float64(th.ID()), pcNaked)
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {ProbeEngine: true}, {NoPrefilter: true}} {
		rep, err := New(store, cfg).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		wantRaces(t, rep, 1)
		r := rep.Races()[0]
		if r.First.Source != "pipeline:naked" || r.Second.Source != "pipeline:naked" {
			t.Fatalf("cfg %+v: race on the wrong site:\n%s", cfg, rep)
		}
	}
}

// TestPipelineSalvageDifferential: on a trace with a corrupt mid-log block
// the pipelined decoder must surface the same salvage verdict on both
// construction paths — same quarantine set, damage counters, and surviving
// races — since block order, and with it the salvage records, is preserved
// through the channel.
func TestPipelineSalvageDifferential(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
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
	var reps []*report.Report
	for _, cfg := range []Config{{}, {ProbeEngine: true}} {
		rep, err := New(fs, cfg).Analyze()
		if !errors.Is(err, trace.ErrTraceDamaged) {
			t.Fatalf("salvage analysis failed: %v", err)
		}
		if !rep.Stats.Partial() || rep.Stats.CorruptBlocks == 0 {
			t.Fatalf("corruption not surfaced: %+v", rep.Stats)
		}
		reps = append(reps, rep)
	}
	a, b := reps[0], reps[1]
	if !sitesEqual(raceSites(a), raceSites(b)) {
		t.Fatalf("salvaged race sets differ: %v vs %v", raceSites(a), raceSites(b))
	}
	if a.Stats.CorruptBlocks != b.Stats.CorruptBlocks ||
		a.Stats.IntervalsQuarantined != b.Stats.IntervalsQuarantined ||
		a.Stats.LostBytes != b.Stats.LostBytes ||
		a.Stats.SalvagedBytes != b.Stats.SalvagedBytes {
		t.Fatalf("salvage coverage differs between construction paths:\n%+v\n%+v", a.Stats, b.Stats)
	}
}
