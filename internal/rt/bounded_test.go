package rt

import (
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sword/internal/compress"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// slowStore delays every log write, so flush workers fall behind the
// application threads and a slot's other buffer is still in flight when
// the encoder fills the next one.
type slowStore struct {
	trace.Store
	delay time.Duration
}

func (s slowStore) CreateLog(slot int) (io.WriteCloser, error) {
	w, err := s.Store.CreateLog(slot)
	if err != nil {
		return nil, err
	}
	return slowWriter{w, s.delay}, nil
}

type slowWriter struct {
	io.WriteCloser
	delay time.Duration
}

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.WriteCloser.Write(p)
}

// countedWorkload is a deterministic four-thread program (each thread draws
// from its own seeded generator) that adds every event it issues —
// accesses, and the acquire/release pair of each critical section — to
// issued.
func countedWorkload(issued *atomic.Uint64) func(*omp.Runtime) {
	pc := pcreg.Site("rt-bounded:access")
	return func(rtm *omp.Runtime) {
		rtm.Parallel(4, func(th *omp.Thread) {
			rng := rand.New(rand.NewSource(int64(th.ID())))
			var n uint64
			for phase := 0; phase < 3; phase++ {
				for i, end := 0, 20000+rng.Intn(4000); i < end; i++ {
					addr := 0x100000 + uint64(rng.Intn(1<<12))*8
					th.Write(addr, 8, pc)
					n++
					if rng.Intn(512) == 0 {
						th.Critical("c", func() { th.Read(addr, 8, pc) })
						n += 3
					}
				}
				th.Barrier()
			}
			issued.Add(n)
		})
	}
}

type boundedRun struct {
	col    *Collector
	snap   obs.Snapshot
	issued uint64
	err    error // from Close
}

// runBounded collects countedWorkload into store and fails the test if the
// run or Close has not returned after 30 s: a producer waiting on a
// buffer that never comes back would otherwise hang the test binary.
func runBounded(t *testing.T, store trace.Store, cfg Config) boundedRun {
	t.Helper()
	m := obs.New()
	cfg.Obs = m
	var issued atomic.Uint64
	col := New(store, cfg)
	done := make(chan error, 1)
	go func() {
		countedWorkload(&issued)(omp.New(omp.WithTool(col)))
		done <- col.Close()
	}()
	select {
	case err := <-done:
		return boundedRun{col: col, snap: m.Snapshot(), issued: issued.Load(), err: err}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("collection still running after 30 s:\n%s", buf[:runtime.Stack(buf, true)])
		return boundedRun{}
	}
}

// check asserts the bounds every run keeps, degraded or not: the shared
// event counters equal the events issued, and at most one block per slot
// was ever in flight.
func (r boundedRun) check(t *testing.T) {
	t.Helper()
	st := r.col.Stats()
	if st.Events != r.issued {
		t.Errorf("Stats().Events = %d, issued %d", st.Events, r.issued)
	}
	if got := uint64(r.snap.Value("rt.events")); got != r.issued {
		t.Errorf("rt.events = %d, issued %d", got, r.issued)
	}
	if peak := r.snap.Value("rt.flush_queue_peak"); peak > int64(st.Slots) {
		t.Errorf("rt.flush_queue_peak = %d, above %d slots", peak, st.Slots)
	}
}

// TestBoundedFlushSlowStore drives the two-buffer pipeline against a store
// slower than the program: producers must wait (rt.backpressure_waits),
// never reorder, and Close must wait for blocks still in flight. The trace
// must be byte-identical to a synchronous run. With the default buffer
// size and the raw codec every block is one delayed store write, so the
// last block of each slot is still in flight when Close starts.
func TestBoundedFlushSlowStore(t *testing.T) {
	for _, maxEvents := range []int{256, 0} {
		var issued atomic.Uint64
		want := collectRaw(t, Config{Synchronous: true, MaxEvents: maxEvents, Codec: compress.Raw{}}, countedWorkload(&issued))
		for _, workers := range []int{1, 2} {
			store := trace.NewMemStore()
			r := runBounded(t, slowStore{store, 5 * time.Millisecond}, Config{MaxEvents: maxEvents, Codec: compress.Raw{}, FlushWorkers: workers})
			if r.err != nil {
				t.Fatal(r.err)
			}
			r.check(t)
			if r.issued != issued.Load() {
				t.Fatalf("max=%d workers=%d: issued %d events, synchronous run issued %d", maxEvents, workers, r.issued, issued.Load())
			}
			if r.snap.Value("rt.backpressure_waits") == 0 {
				t.Errorf("max=%d workers=%d: no producer waited on a store slower than the program", maxEvents, workers)
			}
			if got := slotBlobs(t, store); !slices.Equal(got, want) {
				t.Errorf("max=%d workers=%d: trace differs from the synchronous trace", maxEvents, workers)
			}
		}
	}
}

// TestBoundedFlushWriteFailure fails the store mid-run while writes are
// slow: failed blocks still return their buffers, so the run and Close
// finish, the slots degrade, and every issued event is still counted.
func TestBoundedFlushWriteFailure(t *testing.T) {
	fs := trace.NewFaultStore(slowStore{trace.NewMemStore(), time.Millisecond})
	fs.FailWritesAfter(200<<10, nil)
	r := runBounded(t, fs, Config{MaxEvents: 256, Codec: compress.Raw{}, FlushWorkers: 2})
	if r.err == nil {
		t.Fatal("Close reported no error after write failures")
	}
	r.check(t)
	if st := r.col.Stats(); st.FlushErrors == 0 || st.DegradedSlots == 0 {
		t.Fatalf("stats = %+v, want flush errors and degraded slots", st)
	}
	if fs.WriteFailures() == 0 {
		t.Fatal("the fault never fired")
	}
}

// TestBoundedFlushDegradedSlot: slots whose files could not be created are
// degraded from their first event; their blocks are dropped by the worker
// and the buffers still come back.
func TestBoundedFlushDegradedSlot(t *testing.T) {
	r := runBounded(t, &createFailStore{Store: trace.NewMemStore()}, Config{MaxEvents: 256, FlushWorkers: 2})
	if r.err == nil {
		t.Fatal("Close reported no error")
	}
	r.check(t)
	if st := r.col.Stats(); st.DegradedSlots == 0 {
		t.Fatalf("stats = %+v, want degraded slots", st)
	}
}
