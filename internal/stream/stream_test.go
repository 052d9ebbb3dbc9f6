package stream_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/stream"
	"sword/internal/trace"
)

// raceLines renders a report's race set as sorted strings for comparison.
func raceLines(rep *report.Report) []string {
	races := rep.Races()
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.String()
	}
	return out
}

// TestLiveMatchesPostMortem runs a multi-phase racy program under a
// live-flush collector while a streaming analyzer tails the store, and
// checks three things: epochs actually seal while the program runs, the
// final report's race set and structural stats match a pure post-mortem
// analysis, and the analysis frontier peaks strictly below the committed
// trace volume.
func TestLiveMatchesPostMortem(t *testing.T) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{LiveFlush: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)

	metrics := obs.New()
	var liveRaces atomic.Int64
	an := stream.New(store, stream.Config{
		Obs:          metrics,
		PollInterval: 200 * time.Microsecond,
		OnRace:       func(report.Race) { liveRaces.Add(1) },
	})
	type result struct {
		rep *report.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := an.Run(context.Background())
		done <- result{rep, err}
	}()

	pcRace := pcreg.Site("stream-test:racy")
	pcMine := pcreg.Site("stream-test:private")
	x, _ := space.AllocF64(64)
	sealed := metrics.Counter("stream.epochs_sealed")
	var stop atomic.Bool
	rtm.Parallel(4, func(th *omp.Thread) {
		for phase := 0; ; phase++ {
			th.StoreF64(x, 0, float64(th.ID()), pcRace) // all threads: same word
			th.StoreF64(x, 8+th.ID(), 1, pcMine)        // disjoint per thread
			th.Barrier()
			// Keep producing barrier episodes until the tailer has sealed a
			// few while we are demonstrably still running, so the test pins
			// the online property rather than the post-mortem fallback.
			if th.ID() == 0 {
				if sealed.Load() >= 3 || phase >= 2000 {
					stop.Store(true)
				} else {
					time.Sleep(500 * time.Microsecond)
				}
			}
			th.Barrier()
			if stop.Load() {
				return
			}
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("stream run: %v", res.err)
	}

	if got := sealed.Load(); got < 3 {
		t.Errorf("only %d epochs sealed while the program ran", got)
	}
	if liveRaces.Load() == 0 {
		t.Error("no races surfaced through OnRace")
	}

	post, err := core.New(store, core.Config{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatalf("post-mortem: %v", err)
	}
	gotRaces, wantRaces := raceLines(res.rep), raceLines(post)
	if len(gotRaces) != len(wantRaces) {
		t.Fatalf("race sets differ: live %v vs post-mortem %v", gotRaces, wantRaces)
	}
	for i := range gotRaces {
		if gotRaces[i] != wantRaces[i] {
			t.Errorf("race %d: live %q vs post-mortem %q", i, gotRaces[i], wantRaces[i])
		}
	}
	// Structural stats are deterministic across the live/post-mortem split;
	// engine-order-dependent counters (cache hits, suppressions) are not
	// compared.
	g, w := res.rep.Stats, post.Stats
	if g.Intervals != w.Intervals || g.IntervalPairs != w.IntervalPairs ||
		g.TreeNodes != w.TreeNodes || g.Accesses != w.Accesses ||
		g.Regions != w.Regions || g.PairsPrefiltered != w.PairsPrefiltered ||
		g.PairsRetiredStatic != w.PairsRetiredStatic {
		t.Errorf("structural stats diverge:\nlive:        %+v\npost-mortem: %+v", g, w)
	}

	snap := metrics.Snapshot()
	peak := snap.Value("stream.frontier_bytes_peak")
	committed := snap.Value("stream.committed_bytes")
	if peak <= 0 || committed <= 0 {
		t.Fatalf("frontier metrics missing: peak=%d committed=%d", peak, committed)
	}
	if peak >= committed {
		t.Errorf("frontier peak %d not below committed trace volume %d — sealing freed nothing", peak, committed)
	}
}

// TestSingleIntervalRegionsSealLive pins the region-join sealing rule on
// the lulesh shape: a serial loop of bare parallel regions, each with a
// single barrier interval. The within-region rule (a later interval of
// the same region) never fires here — each region only ever produces
// interval 0 — so sealing must come from join evidence: the fork of the
// next region proves the previous one was joined.
func TestSingleIntervalRegionsSealLive(t *testing.T) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{LiveFlush: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)

	metrics := obs.New()
	an := stream.New(store, stream.Config{
		Obs:          metrics,
		PollInterval: 200 * time.Microsecond,
	})
	type result struct {
		rep *report.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := an.Run(context.Background())
		done <- result{rep, err}
	}()

	pcRace := pcreg.Site("stream-test:serial-racy")
	pcMine := pcreg.Site("stream-test:serial-private")
	x, _ := space.AllocF64(64)
	sealed := metrics.Counter("stream.epochs_sealed")
	for n := 0; n < 2000; n++ {
		rtm.Parallel(4, func(th *omp.Thread) {
			th.StoreF64(x, 0, float64(th.ID()), pcRace) // all threads: same word
			th.StoreF64(x, 8+th.ID(), 1, pcMine)        // disjoint per thread
		})
		// Keep forking regions until several have sealed while we are
		// demonstrably still running.
		if n >= 4 && sealed.Load() >= 3 {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("stream run: %v", res.err)
	}

	if got := sealed.Load(); got < 3 {
		t.Errorf("only %d epochs sealed while the serial region loop ran", got)
	}

	post, err := core.New(store, core.Config{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatalf("post-mortem: %v", err)
	}
	got, want := raceLines(res.rep), raceLines(post)
	if len(got) != len(want) {
		t.Fatalf("race sets differ: live %v vs post-mortem %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("race %d: live %q vs post-mortem %q", i, got[i], want[i])
		}
	}

	snap := metrics.Snapshot()
	peak := snap.Value("stream.frontier_bytes_peak")
	committed := snap.Value("stream.committed_bytes")
	if peak <= 0 || committed <= 0 {
		t.Fatalf("frontier metrics missing: peak=%d committed=%d", peak, committed)
	}
	if peak >= committed {
		t.Errorf("frontier peak %d not below committed trace volume %d — sealing freed nothing", peak, committed)
	}
}

// TestFinishedStore streams over a store whose run already completed: the
// end marker is present from the first poll, so everything lands in the
// finalize pass — and still matches post-mortem output exactly.
func TestFinishedStore(t *testing.T) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	pc := pcreg.Site("stream-test:finished")
	x, _ := space.AllocF64(8)
	rtm.Parallel(3, func(th *omp.Thread) {
		th.StoreF64(x, 0, 1, pc)
		th.Barrier()
		th.StoreF64(x, th.ID()+1, 1, pc)
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := stream.New(store, stream.Config{}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	post, err := core.New(store, core.Config{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, want := raceLines(rep), raceLines(post)
	if len(got) != len(want) {
		t.Fatalf("race sets differ: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("race %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestCancelledRun pins the crashed-run path: no end marker ever appears,
// the context is cancelled, and Run returns the partial live report with
// the context's error.
func TestCancelledRun(t *testing.T) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{LiveFlush: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	pc := pcreg.Site("stream-test:cancel")
	x, _ := space.AllocF64(8)
	rtm.Parallel(2, func(th *omp.Thread) {
		for phase := 0; phase < 4; phase++ {
			th.StoreF64(x, 0, 1, pc)
			th.Barrier()
		}
	})
	// The collector is never closed: the trace looks like a crashed run.

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := stream.New(store, stream.Config{}).Run(ctx)
	if err == nil {
		t.Fatal("expected the context error")
	}
	if rep == nil {
		t.Fatal("expected a partial report")
	}
}

// TestFinishedStoreDamaged: damage in a finished trace, whether a live
// round decodes it (a corrupt log block) or only the post-mortem pass
// reads it (the pc table), comes back as the partial report beside an
// error matching trace.ErrTraceDamaged.
func TestFinishedStoreDamaged(t *testing.T) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 64})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	pc := pcreg.Site("stream-test:damaged")
	x, _ := space.AllocF64(64)
	rtm.Parallel(2, func(th *omp.Thread) {
		for phase := 0; phase < 8; phase++ {
			for i := 0; i < 64; i++ {
				th.StoreF64(x, i, 1, pc)
			}
			th.Barrier()
		}
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"aux:pctable", "log:0"} {
		fs := trace.NewFaultStore(store)
		fs.SetMutateRead(func(name string, data []byte) []byte {
			if name != target {
				return data
			}
			if target == "aux:pctable" {
				return []byte("not a pc table\n")
			}
			hit := append([]byte(nil), data...)
			hit[len(hit)/2] ^= 0xFF
			return hit
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rep, err := stream.New(fs, stream.Config{}).Run(ctx)
		cancel()
		if !errors.Is(err, trace.ErrTraceDamaged) {
			t.Fatalf("%s: want the damage error, got %v", target, err)
		}
		if rep == nil || rep.Len() == 0 {
			t.Fatalf("%s: want the partial report beside the damage, got %v", target, rep)
		}
		if target == "log:0" && !rep.Stats.Partial() {
			t.Fatalf("corrupt log block not reported partial: %+v", rep.Stats)
		}
	}
}
