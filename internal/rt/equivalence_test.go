package rt

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// equivWorkload returns a randomized multi-slot program whose per-thread
// event sequence is fully determined by the seed: each team member draws
// from its own thread-seeded generator, so two executions produce the same
// per-slot logs no matter how flushing is scheduled.
func equivWorkload(seed int64) func(rtm *omp.Runtime) {
	pcR := pcreg.Site("rt-equiv:read")
	pcW := pcreg.Site("rt-equiv:write")
	return func(rtm *omp.Runtime) {
		rtm.Parallel(4, func(th *omp.Thread) {
			rng := rand.New(rand.NewSource(seed + int64(th.ID())))
			for phase := 0; phase < 3; phase++ {
				n := 200 + rng.Intn(400)
				for i := 0; i < n; i++ {
					addr := 0x100000 + uint64(rng.Intn(1<<12))*8
					if rng.Intn(2) == 0 {
						th.Write(addr, 8, pcW)
					} else {
						th.Read(addr, 8, pcR)
					}
					if rng.Intn(64) == 0 {
						th.Critical("c", func() { th.Write(addr, 8, pcW) })
					}
				}
				th.Barrier()
			}
		})
	}
}

// collectRaw runs the program under cfg and returns each slot's stored log
// and meta bytes, sorted so that a permuted thread→slot assignment between
// runs does not affect the comparison.
func collectRaw(t *testing.T, cfg Config, program func(*omp.Runtime)) []string {
	t.Helper()
	store, _ := collect(t, cfg, program)
	return slotBlobs(t, store)
}

// slotBlobs returns each slot's stored log and meta bytes, sorted.
func slotBlobs(t *testing.T, store trace.Store) []string {
	t.Helper()
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, slot := range slots {
		lsrc, err := store.OpenLog(slot)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := io.ReadAll(lsrc)
		if err != nil {
			t.Fatal(err)
		}
		msrc, err := store.OpenMeta(slot)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := io.ReadAll(msrc)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, fmt.Sprintf("log:%x|meta:%x", lb, mb))
	}
	sort.Strings(blobs)
	return blobs
}

// TestAsyncFlushEquivalence pins the parallel flush pipeline's core
// guarantee: for any worker count, the stored trace is byte-identical to a
// synchronous run of the same program — per-slot block order is preserved
// even though different slots compress concurrently.
func TestAsyncFlushEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		program := equivWorkload(seed)
		// Small buffers force many blocks per slot, maximizing reordering
		// opportunities for a buggy pipeline.
		want := collectRaw(t, Config{Synchronous: true, MaxEvents: 64}, program)
		for _, workers := range []int{1, 2, 8} {
			got := collectRaw(t, Config{MaxEvents: 64, FlushWorkers: workers}, program)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: async trace (workers=%d) differs from synchronous trace", seed, workers)
			}
		}
	}
}

// TestRegionJoinUnmatchedDiagnostic pins the malformed-sequence behavior: a
// RegionJoin with no matching RegionFork must not panic; it is recorded as
// a diagnostic and counted in rt.protocol_errors, and the trace stays
// structurally valid.
func TestRegionJoinUnmatchedDiagnostic(t *testing.T) {
	m := obs.New()
	store := trace.NewMemStore()
	col := New(store, Config{Synchronous: true, Obs: m})
	rtm := omp.New(omp.WithTool(col))
	rtm.Parallel(2, func(th *omp.Thread) {
		th.Write(0x1000+uint64(th.ID())*8, 8, 1)
		if th.ID() == 1 {
			// A worker thread's slot never saw a RegionFork (forks fire on
			// the encountering thread), so this join is unmatched.
			col.RegionJoin(th, omp.RegionInfo{ID: 999})
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	diags := col.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %q, want exactly one", diags)
	}
	if !strings.Contains(diags[0], "RegionJoin") || !strings.Contains(diags[0], "999") {
		t.Fatalf("diagnostic %q does not identify the unmatched join", diags[0])
	}
	if got := m.Snapshot().Value("rt.protocol_errors"); got != 1 {
		t.Fatalf("rt.protocol_errors = %d, want 1", got)
	}
	if err := trace.Validate(store); err != nil {
		t.Fatalf("trace invalid after unmatched join: %v", err)
	}
}
