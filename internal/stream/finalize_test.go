package stream_test

import (
	"context"
	"slices"
	"testing"

	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/rt"
	"sword/internal/stream"
	"sword/internal/trace"
)

// catchUp collects program into a finished store, then analyzes it once
// with the streaming analyzer and once post-mortem, each with its own
// metrics registry.
func catchUp(t *testing.T, cfg rt.Config, program func(rtm *omp.Runtime, space *memsim.Space)) (live, post obs.Snapshot) {
	t.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, cfg)
	program(omp.New(omp.WithTool(col)), memsim.NewSpace(nil))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	lm, pm := obs.New(), obs.New()
	rep, err := stream.New(store, stream.Config{Core: core.Config{Obs: lm}, Obs: lm}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.New(store, core.Config{Obs: pm}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, w := raceLines(rep), raceLines(want); !slices.Equal(got, w) {
		t.Fatalf("race sets differ: live %v vs post-mortem %v", got, w)
	}
	if rep.Stats.TreeNodes != want.Stats.TreeNodes || rep.Stats.IntervalPairs != want.Stats.IntervalPairs {
		t.Fatalf("stats differ: live %+v vs post-mortem %+v", rep.Stats, want.Stats)
	}
	return lm.Snapshot(), pm.Snapshot()
}

// TestFinalizeDecodesOnlyWhatRoundsLeft pins the cost of the end of a
// live analysis. On a finished store of single-interval regions in
// sequence (the lulesh shape) every pair is same-group, so the live
// rounds decide all of it: together they decode each trace event exactly
// once, and Finalize decodes no block and builds no unit. With a nested
// region under each thread of a team, the cross-region pairs are
// deferred: Finalize builds exactly the units those pairs name, and
// nothing of the flat region beside them.
func TestFinalizeDecodesOnlyWhatRoundsLeft(t *testing.T) {
	pcRace := pcreg.Site("finalize-test:racy")
	pcMine := pcreg.Site("finalize-test:private")
	t.Run("lulesh", func(t *testing.T) {
		for _, cfg := range []rt.Config{
			{LiveFlush: true, MaxEvents: 64},
			{Synchronous: true, MaxEvents: 64},
		} {
			live, post := catchUp(t, cfg, func(rtm *omp.Runtime, space *memsim.Space) {
				x, _ := space.AllocF64(64)
				for n := 0; n < 40; n++ {
					rtm.Parallel(4, func(th *omp.Thread) {
						th.StoreF64(x, 0, 1, pcRace)
						for i := 0; i < 50; i++ {
							th.StoreF64(x, 8+th.ID(), float64(i), pcMine)
						}
					})
				}
			})
			events := post.Value("trace.events")
			if events == 0 {
				t.Fatal("premise: the post-mortem pass decoded no events")
			}
			if got := live.Value("trace.events"); got != events {
				t.Errorf("%+v: live analysis decoded %d events, the trace holds %d", cfg, got, events)
			}
			if got := live.Value("stream.finalize_blocks"); got != 0 {
				t.Errorf("%+v: Finalize decoded %d blocks, want 0", cfg, got)
			}
			if got := live.Value("stream.finalize_units"); got != 0 {
				t.Errorf("%+v: Finalize built %d units, want 0", cfg, got)
			}
			for _, name := range []string{"trace.blocks", "trace.raw_bytes", "trace.compressed_bytes"} {
				if got, want := live.Value(name), post.Value(name); got != want {
					t.Errorf("%+v: %s = %d live, %d post-mortem", cfg, name, got, want)
				}
			}
		}
	})
	t.Run("nested", func(t *testing.T) {
		live, _ := catchUp(t, rt.Config{LiveFlush: true, MaxEvents: 64}, func(rtm *omp.Runtime, space *memsim.Space) {
			x, _ := space.AllocF64(64)
			// Region 1: two threads, each forking a two-thread nested
			// region. Every interval writes the shared word.
			rtm.Parallel(2, func(th *omp.Thread) {
				th.StoreF64(x, 0, 1, pcRace)
				th.Parallel(2, func(in *omp.Thread) {
					in.StoreF64(x, 0, 1, pcRace)
				})
			})
			// Region 2: flat, its one pair decided live.
			rtm.Parallel(2, func(th *omp.Thread) {
				th.StoreF64(x, 8+th.ID(), 1, pcMine)
			})
		})
		// The deferred pairs: the two nested regions' intervals against
		// each other (forked by different threads of one interval) and
		// against the team thread that did not fork them. Their units are
		// the 2 outer and 4 nested intervals; the flat region's 2 are not.
		if got := live.Value("core.intervals"); got != 8 {
			t.Fatalf("premise: want 2+4 intervals in region 1 and 2 in region 2, got %d", got)
		}
		if got := live.Value("stream.finalize_units"); got != 6 {
			t.Errorf("Finalize built %d units, want the 6 of the deferred pairs", got)
		}
	})
}
