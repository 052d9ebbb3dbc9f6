package rt

import (
	"errors"
	"io"
	"strings"
	"testing"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// faultWorkload runs a two-thread region with enough accesses to force
// several buffer flushes. rounds scales the trace volume: the log writer
// buffers 64 KiB, so driving write failures mid-run (not just at Close)
// needs enough rounds to push multiple buffer-fulls into the store.
func faultWorkload(col *Collector, rounds int) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(256)
	pc := pcreg.Site("fault-test:store")
	runtime := omp.New(omp.WithTool(col))
	runtime.Parallel(2, func(th *omp.Thread) {
		for round := 0; round < rounds; round++ {
			th.For(0, 256, func(i int) {
				th.StoreF64(arr, i, float64(i), pc)
			})
			th.Barrier()
		}
	})
}

// TestFlushFailureDegradesSlot pins the collector's write-failure policy:
// when the store starts failing mid-run (disk full), the run keeps going —
// no panic — the failures are counted, the slot is marked degraded, and
// the trace written before the fault remains a salvageable prefix.
func TestFlushFailureDegradesSlot(t *testing.T) {
	mem := trace.NewMemStore()
	fs := trace.NewFaultStore(mem)
	fs.FailWritesAfter(80<<10, nil) // a buffer-full or two fits, then ENOSPC
	fs.SetTornWrites(true)

	metrics := obs.New()
	col := New(fs, Config{Synchronous: true, MaxEvents: 128, Codec: compress.Raw{}, Obs: metrics})
	faultWorkload(col, 400)

	err := col.Close()
	if err == nil {
		t.Fatal("Close reported no error after write failures")
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Close error lacks degradation summary: %v", err)
	}

	stats := col.Stats()
	if stats.FlushErrors == 0 || stats.DegradedSlots == 0 {
		t.Fatalf("stats = %+v, want flush errors and degraded slots", stats)
	}
	if len(col.Diagnostics()) == 0 {
		t.Fatal("no diagnostics recorded")
	}
	if v := metrics.Snapshot().Value("rt.flush_errors"); v == 0 {
		t.Fatalf("rt.flush_errors = %d", v)
	}

	// The intact prefix of each degraded log must still read back; the
	// torn tail is the only error, and it is damage, not a failure.
	slots, err := mem.Slots()
	if err != nil {
		t.Fatal(err)
	}
	salvagedBlocks := 0
	for _, slot := range slots {
		src, err := mem.OpenLog(slot)
		if err != nil {
			t.Fatal(err)
		}
		lr := trace.NewLogReader(src)
		for {
			_, _, err := lr.Next()
			if err == io.EOF {
				break
			}
			if errors.Is(err, trace.ErrTraceDamaged) {
				continue
			}
			if err != nil {
				t.Fatalf("slot %d salvage read: %v", slot, err)
			}
			salvagedBlocks++
		}
		lr.Close()
	}
	if salvagedBlocks == 0 {
		t.Fatal("no blocks salvaged from the pre-fault prefix")
	}
}

// TestFlushFailureAsyncPipeline runs the same fault through the
// asynchronous flush pipeline: worker-side failures must degrade the slot
// without panicking a worker goroutine or deadlocking Close.
func TestFlushFailureAsyncPipeline(t *testing.T) {
	fs := trace.NewFaultStore(trace.NewMemStore())
	fs.FailWritesAfter(80<<10, nil)
	col := New(fs, Config{MaxEvents: 128, FlushWorkers: 2, Codec: compress.Raw{}})
	faultWorkload(col, 400)
	if err := col.Close(); err == nil {
		t.Fatal("Close reported no error after write failures")
	}
	if stats := col.Stats(); stats.FlushErrors == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// createFailStore fails CreateLog for every slot but the first.
type createFailStore struct {
	trace.Store
	created int
}

func (s *createFailStore) CreateLog(slot int) (io.WriteCloser, error) {
	s.created++
	if s.created > 1 {
		return nil, errors.New("injected create failure")
	}
	return s.Store.CreateLog(slot)
}

// TestCreateFailureKeepsRunAlive: failing to even create a slot's files
// must not panic the instrumented application; the slot collects into the
// void and is reported degraded.
func TestCreateFailureKeepsRunAlive(t *testing.T) {
	col := New(&createFailStore{Store: trace.NewMemStore()}, Config{Synchronous: true, MaxEvents: 128})
	faultWorkload(col, 20)
	if err := col.Close(); err == nil {
		t.Fatal("Close reported no error")
	}
	stats := col.Stats()
	if stats.DegradedSlots == 0 {
		t.Fatalf("stats = %+v, want a degraded slot", stats)
	}
	if stats.Events == 0 {
		t.Fatal("collection stopped after create failure")
	}
}

// TestFailCloseSurfacesError: close-time failures (buffered tail lost)
// must surface through Close, joined across slots.
func TestFailCloseSurfacesError(t *testing.T) {
	fs := trace.NewFaultStore(trace.NewMemStore())
	boom := errors.New("injected close failure")
	fs.FailClose(boom)
	col := New(fs, Config{Synchronous: true, MaxEvents: 128})
	faultWorkload(col, 20)
	if err := col.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want injected close failure", err)
	}
}
