package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// collectWorkload runs a named example workload under the collector and
// returns its trace store.
func collectWorkload(t *testing.T, name string) trace.Store {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true})
	rtm := omp.New(omp.WithTool(col))
	w.Run(&workloads.Ctx{RT: rtm, Space: memsim.NewSpace(nil), Threads: 4, Size: w.DefaultSize})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// raceKeys keys races the way report dedup does (unordered PC pair plus
// write bits); Count and witness Addr legitimately vary with scheduling.
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

func wantSameRaces(t *testing.T, label string, got, want *report.Report) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d dedup'd races, want %d\ngot:\n%s\nwant:\n%s",
			label, got.Len(), want.Len(), got.String(), want.String())
	}
	gk, wk := raceKeys(got), raceKeys(want)
	for k := range wk {
		if !gk[k] {
			t.Fatalf("%s: missing race %s", label, k)
		}
	}
}

// distWorkloads are the differential workloads: racy OmpSCR kernel, racy
// DataRaceBench micro kernel, a race-free kernel, and a tasking program.
var distWorkloads = []string{"c_md", "plusplus-orig-yes", "critical-no", "tasksibling-orig-yes"}

// TestLocalMatchesSingleProcess is the acceptance differential: a
// coordinator plus N loopback workers must produce the race set and
// dedup'd race count of the single-process analyzer, on every example
// workload tried and for several worker counts and batch sizes.
func TestLocalMatchesSingleProcess(t *testing.T) {
	for _, name := range distWorkloads {
		t.Run(name, func(t *testing.T) {
			store := collectWorkload(t, name)
			base, err := core.New(store, core.Config{}).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct{ workers, batch int }{{1, 4}, {2, 4}, {4, 1}, {3, 1000000}} {
				// The legacy struct configs must keep working through the
				// escape-hatch options; WithInlineBelow(-1) forces the wire,
				// which is what this differential exists to exercise.
				rep, err := Local(context.Background(), store, tc.workers,
					WithCoordinatorConfig(CoordinatorConfig{BatchUnits: tc.batch}),
					WithWorkerConfig(WorkerConfig{}),
					WithInlineBelow(-1))
				if err != nil {
					t.Fatalf("workers=%d batch=%d: %v", tc.workers, tc.batch, err)
				}
				wantSameRaces(t, fmt.Sprintf("workers=%d batch=%d", tc.workers, tc.batch), rep, base)
			}
		})
	}
}

// TestLocalMergedStats: structure counts come from the coordinator's own
// plan, effort counters from summed worker deltas — both must be sane and
// the structure counts identical to the single-process run.
func TestLocalMergedStats(t *testing.T) {
	store := collectWorkload(t, "c_md")
	base, err := core.New(store, core.Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Local(context.Background(), store, 2, WithBatchUnits(8), WithInlineBelow(-1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Intervals != base.Stats.Intervals || rep.Stats.Regions != base.Stats.Regions {
		t.Errorf("structure stats %d/%d, want %d/%d",
			rep.Stats.Intervals, rep.Stats.Regions, base.Stats.Intervals, base.Stats.Regions)
	}
	if base.Stats.NodeComparisons > 0 && rep.Stats.NodeComparisons == 0 {
		t.Error("no node comparisons merged from workers")
	}
	if rep.Stats.IntervalPairs == 0 {
		t.Error("no interval pairs merged from workers")
	}
}

// TestWorkerDeathMidBatch is the fault-injection acceptance test: one
// worker dies mid-batch (connection torn, no result), the coordinator
// requeues its units onto the surviving worker, the final report is
// complete, and dist.units_retried records the retry.
func TestWorkerDeathMidBatch(t *testing.T) {
	store := collectWorkload(t, "c_md")
	base, err := core.New(store, core.Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	var died atomic.Bool
	rep, err := Local(context.Background(), store, 2,
		WithBatchUnits(2),
		WithRetryBackoff(10*time.Millisecond),
		WithObs(m),
		WithInlineBelow(-1),
		WithBatchHook(func(seq uint64, units []core.PairUnit) error {
			if died.CompareAndSwap(false, true) {
				return errors.New("injected worker death")
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	wantSameRaces(t, "after worker death", rep, base)
	snap := m.Snapshot()
	if v := snap.Value("dist.units_retried"); v <= 0 {
		t.Errorf("dist.units_retried = %d, want > 0", v)
	}
	if v := snap.Value("dist.workers_dropped"); v != 1 {
		t.Errorf("dist.workers_dropped = %d, want 1", v)
	}
	if v := snap.Value("dist.units_lost"); v != 0 {
		t.Errorf("dist.units_lost = %d, want 0", v)
	}
	var noted bool
	for _, n := range rep.Notes() {
		if strings.Contains(n, "requeued") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("no requeue note in the report; notes: %v", rep.Notes())
	}
}

// TestSlowWorkerDropped: a worker that heartbeats but overruns the batch
// deadline is dropped — heartbeats prove liveness, not progress — and its
// units complete elsewhere.
func TestSlowWorkerDropped(t *testing.T) {
	store := collectWorkload(t, "plusplus-orig-yes")
	base, err := core.New(store, core.Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	var slowed atomic.Bool
	rep, err := Local(context.Background(), store, 2,
		WithBatchUnits(2),
		WithBatchTimeout(200*time.Millisecond),
		WithWorkerTimeout(150*time.Millisecond),
		WithRetryBackoff(10*time.Millisecond),
		WithObs(m),
		WithInlineBelow(-1),
		WithHeartbeatEvery(20*time.Millisecond),
		WithBatchHook(func(seq uint64, units []core.PairUnit) error {
			if slowed.CompareAndSwap(false, true) {
				time.Sleep(600 * time.Millisecond) // heartbeats keep flowing
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	wantSameRaces(t, "after slow worker", rep, base)
	snap := m.Snapshot()
	if v := snap.Value("dist.units_retried"); v <= 0 {
		t.Errorf("dist.units_retried = %d, want > 0", v)
	}
	if v := snap.Value("dist.heartbeats"); v <= 0 {
		t.Errorf("dist.heartbeats = %d, want > 0 (slow batch should have heartbeat)", v)
	}
}

// TestUnitExhaustsAttempts: when every worker kills every batch, units run
// out of attempts and the run fails loudly instead of returning a
// silently incomplete report.
func TestUnitExhaustsAttempts(t *testing.T) {
	store := collectWorkload(t, "plusplus-orig-yes")
	m := obs.New()
	// Workers die on every batch; respawn a fresh worker after each death
	// so the coordinator always has someone to hand work to.
	coord, err := NewCoordinator(store, WithCoordinatorConfig(CoordinatorConfig{
		BatchUnits:   4,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Obs:          m,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			Work(context.Background(), ln.Addr().String(), store, WithWorkerConfig(WorkerConfig{
				BatchHook: func(uint64, []core.PairUnit) error { return errors.New("always dies") },
			}))
		}
	}()
	if _, err := coord.Wait(); err == nil {
		t.Fatal("run with only dying workers reported success")
	} else if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("unexpected failure: %v", err)
	}
	if v := m.Snapshot().Value("dist.units_lost"); v <= 0 {
		t.Errorf("dist.units_lost = %d, want > 0", v)
	}
}

// TestWorkerCancel: cancelling the worker's context mid-run makes Work
// return promptly with ctx.Err even while blocked on the network.
func TestWorkerCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // swallow the hello, never reply: worker blocks
		}
	}()
	store := collectWorkload(t, "critical-no")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Work(ctx, ln.Addr().String(), store) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Work returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Work did not return after cancellation")
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestEmptyTrace: an empty store plans zero units; the coordinator
// finishes immediately and Local returns an empty report even though the
// workers never get to connect.
func TestEmptyTrace(t *testing.T) {
	store := trace.NewMemStore()
	rep, err := Local(context.Background(), store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("empty trace produced %d races", rep.Len())
	}
}

// TestCoordinatorRejectsVersionMismatch: a worker speaking the wrong
// protocol version is turned away before any work flows.
func TestCoordinatorRejectsVersionMismatch(t *testing.T) {
	store := collectWorkload(t, "critical-no")
	coord, err := NewCoordinator(store, WithWorkerTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFramer(conn, nil)
	if err := fr.send(msgHello, &Hello{Version: protoVersion + 1, Name: "future"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.recv(); err == nil {
		t.Fatal("coordinator answered a version-mismatched hello instead of closing")
	}
}

// TestLocalDamagedTrace: batches cannot quarantine, so a damaged trace
// fails the distributed run with the typed damage error — from the planner
// for a torn meta stream, and from a worker, across the wire or inline,
// for a corrupt log block.
func TestLocalDamagedTrace(t *testing.T) {
	store := collectWorkload(t, "c_md")
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
	if _, err := Local(context.Background(), tornMeta, 2, WithInlineBelow(-1)); !errors.Is(err, trace.ErrTraceDamaged) {
		t.Fatalf("torn meta: %v", err)
	}
	corrupt := damaged("log:0", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	for _, inline := range []int64{-1, 1 << 40} {
		_, err := Local(context.Background(), corrupt, 2, WithInlineBelow(inline), WithMaxAttempts(2))
		var rep *trace.SalvageReport
		if !errors.As(err, &rep) || rep.CorruptBlocks == 0 {
			t.Fatalf("inline cutoff %d: corrupt log gave %v", inline, err)
		}
	}
}
