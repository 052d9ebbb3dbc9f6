package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/stream"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// Differential testing of the streaming analyzer: on every bundled
// workload and a range of random structured programs, the race set found
// by tailing the trace while the program runs must equal the race set of
// a post-mortem analysis of the completed trace — the online split may
// change when work happens, never what is found.

// liveVsPostMortem executes program under a live-flush collector while a
// streaming analyzer tails the store concurrently, then compares the
// online report against a post-mortem analysis of the same trace.
func liveVsPostMortem(t *testing.T, program func(rtm *omp.Runtime, space *memsim.Space)) {
	t.Helper()
	store := trace.NewMemStore()
	progDone := make(chan error, 1)
	go func() {
		progDone <- func() error {
			col := rt.New(store, rt.Config{LiveFlush: true, MaxEvents: 64})
			rtm := omp.New(omp.WithTool(col))
			program(rtm, memsim.NewSpace(nil))
			return col.Close()
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	live, err := stream.New(store, stream.Config{
		PollInterval: 200 * time.Microsecond,
	}).Run(ctx)
	if err != nil {
		t.Fatalf("online analysis: %v", err)
	}
	if err := <-progDone; err != nil {
		t.Fatalf("collector: %v", err)
	}

	post, err := core.New(store, core.Config{}).AnalyzeContext(context.Background())
	if err != nil {
		t.Fatalf("post-mortem analysis: %v", err)
	}
	got, want := streamRaceLines(live), streamRaceLines(post)
	if len(got) != len(want) {
		t.Fatalf("race sets differ:\nonline:      %v\npost-mortem: %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("race %d: online %q vs post-mortem %q", i, got[i], want[i])
		}
	}
	g, w := live.Stats, post.Stats
	if g.Intervals != w.Intervals || g.IntervalPairs != w.IntervalPairs ||
		g.TreeNodes != w.TreeNodes || g.Accesses != w.Accesses ||
		g.Regions != w.Regions || g.PairsPrefiltered != w.PairsPrefiltered ||
		g.PairsRetiredStatic != w.PairsRetiredStatic {
		t.Errorf("structural stats diverge:\nonline:      %+v\npost-mortem: %+v", g, w)
	}
}

// streamRaceLines renders a report's (already sorted) race set as strings.
func streamRaceLines(rep *report.Report) []string {
	races := rep.Races()
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.String()
	}
	return out
}

// TestStreamDifferentialRandom: online == post-mortem on random
// structured fork-join programs. The seed range stays at 30 in short
// mode so the race-detector leg of make check keeps the full coverage
// the streaming subsystem's acceptance demands.
func TestStreamDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			liveVsPostMortem(t, func(rtm *omp.Runtime, space *memsim.Space) {
				randomProgram(seed, rtm, space)
			})
		})
	}
}

// TestStreamDifferentialWorkloads: online == post-mortem on every
// bundled benchmark workload at its default size.
func TestStreamDifferentialWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			liveVsPostMortem(t, func(rtm *omp.Runtime, space *memsim.Space) {
				w.Run(&workloads.Ctx{RT: rtm, Space: space, Threads: 4, Size: w.DefaultSize})
			})
		})
	}
}

// TestStreamCatchUpDifferential: catch-up on a finished store — where the
// finalize pass settles the deferred pairs from what the rounds recorded
// and decodes only what they did not — equals post-mortem on every
// bundled workload, with the static filter off and on (certificates), on
// the intact trace and with a meta or log file cut short. Races are
// compared by site (witness addresses depend on detection order, ROADMAP
// 1(b)), the error and every stat but the engine's effort counters
// exactly.
func TestStreamCatchUpDifferential(t *testing.T) {
	sites := func(rep *report.Report) string {
		var b strings.Builder
		for _, r := range rep.Races() {
			r.Addr = 0
			b.WriteString(r.String() + "\n")
		}
		return b.String()
	}
	structural := func(s report.Stats) report.Stats {
		s.NodeComparisons, s.SolverCalls, s.SolverCacheHits, s.SolverCacheMisses, s.SitesSuppressed = 0, 0, 0, 0, 0
		return s
	}
	for _, w := range workloads.All() {
		for _, filter := range []bool{false, true} {
			store := trace.NewMemStore()
			col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 64, StaticFilter: filter})
			w.Run(&workloads.Ctx{RT: omp.New(omp.WithTool(col)), Space: memsim.NewSpace(nil), Threads: 4, Size: w.DefaultSize})
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			for _, cut := range []string{"", "meta:1", "log:1"} {
				var st trace.Store = store
				if cut != "" {
					fs := trace.NewFaultStore(store)
					fs.SetMutateRead(func(name string, data []byte) []byte {
						if name != cut || len(data) < 40 {
							return data
						}
						return data[:len(data)-40]
					})
					st = fs
				}
				name := fmt.Sprintf("%s/filter=%v/cut=%q", w.Name, filter, cut)
				live, lerr := stream.New(st, stream.Config{}).Run(context.Background())
				post, perr := core.New(st, core.Config{}).AnalyzeContext(context.Background())
				if fmt.Sprint(lerr) != fmt.Sprint(perr) {
					t.Errorf("%s: errors differ: live %v, post-mortem %v", name, lerr, perr)
					continue
				}
				if live == nil || post == nil {
					t.Errorf("%s: missing report: live %v, post-mortem %v", name, live, post)
					continue
				}
				if got, want := sites(live), sites(post); got != want {
					t.Errorf("%s: races differ:\nlive:\n%spost-mortem:\n%s", name, got, want)
				}
				if got, want := structural(live.Stats), structural(post.Stats); got != want {
					t.Errorf("%s: stats differ:\nlive:        %+v\npost-mortem: %+v", name, got, want)
				}
			}
		}
	}
}
