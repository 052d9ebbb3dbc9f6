package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// The per-slot decode pipeline owns exactly two block buffers. Whether
// the slot streams to its end, reads on past a damaged block, or is
// cancelled, both buffers must come back and the reader goroutine must
// exit before the log reader is closed.

// manyBlocksStore collects a two-thread program whose logs span dozens of
// 64-event blocks.
func manyBlocksStore(t *testing.T) *trace.MemStore {
	t.Helper()
	pc := pcreg.Site("pipeline:many-blocks")
	return runProgram(t, func(rtm *omp.Runtime, space *memsim.Space) {
		x, _ := space.AllocF64(512)
		rtm.Parallel(2, func(th *omp.Thread) {
			for round := 0; round < 8; round++ {
				for i := th.ID(); i < 512; i += 2 {
					th.StoreF64(x, i, 1, pc)
				}
				th.Barrier()
			}
			th.StoreF64(x, 0, 2, pc) // the one race
		})
	})
}

// waitGoroutines waits until no more goroutines run than before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left running, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func openSlotReader(t *testing.T, store trace.Store, slot int) *trace.LogReader {
	t.Helper()
	src, err := store.OpenLog(slot)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewLogReader(src)
}

func TestBlockPipelineReturnsBothBuffers(t *testing.T) {
	store := manyBlocksStore(t)
	damaged := trace.NewFaultStore(store)
	damaged.SetMutateRead(func(name string, data []byte) []byte {
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xFF
		return flipped
	})
	for _, tc := range []string{"complete", "damaged", "cancel"} {
		t.Run(tc, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var lr *trace.LogReader
			if tc == "damaged" {
				lr = openSlotReader(t, damaged, 0)
			} else {
				lr = openSlotReader(t, store, 0)
			}
			defer lr.Close()
			stash := make(chan []byte, 2)
			stash <- nil
			stash <- nil
			p := startBlockPipeline(ctx, lr, nil, 0, stash)
			first, ok := <-p.blocks
			if !ok {
				t.Fatal("no block read")
			}
			blocks := 1
			if tc == "cancel" {
				cancel()
			}
			p.free <- first.raw
			for b := range p.blocks {
				blocks++
				p.free <- b.raw
			}
			err := <-p.err
			if _, open := <-p.blocks; open {
				t.Fatal("reader still delivering after the pipeline ended")
			}
			if n := len(p.free); n != 2 {
				t.Fatalf("%d of 2 buffers returned", n)
			}
			p.release(stash)
			if n := len(stash); n != 2 {
				t.Fatalf("%d of 2 buffers back in the stash", n)
			}
			switch tc {
			case "complete":
				if err != nil || uint64(blocks) != lr.Blocks() || blocks < 10 {
					t.Fatalf("err %v after %d of %d blocks", err, blocks, lr.Blocks())
				}
			case "damaged":
				if err != nil || uint64(blocks) != lr.Blocks()-1 || lr.Salvage().CorruptBlocks != 1 {
					t.Fatalf("err %v after %d of %d blocks, report %v", err, blocks, lr.Blocks(), lr.Salvage())
				}
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled pipeline returned %v", err)
				}
				if blocks > 3 {
					t.Fatalf("reader ran %d blocks past the cancel; at most two fit", blocks-1)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// zeroBlockStore copies src, rewriting slot 0's log so that block k holds
// zero bytes: the block passes its checksum, but its first event tag is
// unknown — a fatal decode error in the middle of the slot.
func zeroBlockStore(t *testing.T, src *trace.MemStore, k int) *trace.MemStore {
	t.Helper()
	dst := trace.NewMemStore()
	slots, err := src.Slots()
	if err != nil {
		t.Fatal(err)
	}
	copyAll := func(r io.ReadCloser, w io.WriteCloser) {
		defer r.Close()
		if _, err := io.Copy(w, r); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, slot := range slots {
		mr, err := src.OpenMeta(slot)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := dst.CreateMeta(slot)
		if err != nil {
			t.Fatal(err)
		}
		copyAll(mr, mw)
		lw, err := dst.CreateLog(slot)
		if err != nil {
			t.Fatal(err)
		}
		if slot != 0 {
			lr, err := src.OpenLog(slot)
			if err != nil {
				t.Fatal(err)
			}
			copyAll(lr, lw)
			continue
		}
		lr := openSlotReader(t, src, slot)
		w := trace.NewLogWriter(lw, compress.LZSS{})
		for i := 0; ; i++ {
			_, raw, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if i == k {
				raw = make([]byte, len(raw))
			}
			if err := w.WriteBlock(raw); err != nil {
				t.Fatal(err)
			}
		}
		lr.Close()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// cancelAfterStore cancels the analysis once n bytes of slot 0's log were
// read, leaving the slot mid-stream.
type cancelAfterStore struct {
	trace.Store
	n      int64
	cancel context.CancelFunc
}

func (s cancelAfterStore) OpenLog(slot int) (io.ReadCloser, error) {
	rc, err := s.Store.OpenLog(slot)
	if err != nil || slot != 0 {
		return rc, err
	}
	return &cancelReader{ReadCloser: rc, left: s.n, cancel: s.cancel}, nil
}

type cancelReader struct {
	io.ReadCloser
	left   int64
	cancel context.CancelFunc
}

func (r *cancelReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		r.cancel()
	}
	if int64(len(p)) > r.left && r.left > 0 {
		p = p[:r.left]
	}
	n, err := r.ReadCloser.Read(p)
	r.left -= int64(n)
	return n, err
}

// TestAnalyzerPipelineNoLeak: a fatal decode error and a cancellation in
// the middle of a slot both end the analysis with their error and leave no
// reader goroutine behind.
func TestAnalyzerPipelineNoLeak(t *testing.T) {
	store := manyBlocksStore(t)
	bad := zeroBlockStore(t, store, 5)
	logBytes := func() int64 {
		rc, err := store.OpenLog(0)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		var buf bytes.Buffer
		buf.ReadFrom(rc)
		return int64(buf.Len())
	}()
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		_, err := New(bad, Config{Workers: workers}).Analyze()
		if err == nil || !strings.Contains(err.Error(), "unknown event tag") {
			t.Fatalf("workers %d: want a decode error, got %v", workers, err)
		}
		waitGoroutines(t, before)

		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		cs := cancelAfterStore{Store: store, n: logBytes / 2, cancel: func() { fired.Store(true); cancel() }}
		_, err = New(cs, Config{Workers: workers}).AnalyzeContext(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) || !fired.Load() {
			t.Fatalf("workers %d: want a mid-slot cancellation, got %v", workers, err)
		}
		waitGoroutines(t, before)
	}
	// The intact trace still analyzes: the race is found.
	rep, err := New(store, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	wantRaces(t, rep, 1)
}
