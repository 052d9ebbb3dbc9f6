package itree

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"sword/internal/trace"
)

// payload renders the comparable payload of a run, including Count —
// stricter than String, which omits it.
func payload(r *Run) string {
	return fmt.Sprintf("%s x%d m=%x", r, r.Count, uint64(r.Mutexes))
}

// randomStream produces an access stream mixing the patterns the analyzer
// sees: ascending sweeps, descending sweeps, repeated same-address
// accesses, interleaved streams with distinct attributes, and pure noise.
func randomStream(rng *rand.Rand, n int) []Access {
	var out []Access
	mkMutex := func() trace.MutexSet {
		var m trace.MutexSet
		for _, id := range []uint64{1, 5, 9} {
			if rng.Intn(4) == 0 {
				m = m.With(id)
			}
		}
		return m
	}
	for len(out) < n {
		pc := uint64(rng.Intn(6))
		width := uint64(1 << rng.Intn(4))
		write := rng.Intn(2) == 0
		atomic := rng.Intn(8) == 0
		mu := mkMutex()
		base := uint64(rng.Intn(4096))
		stride := uint64(rng.Intn(5)) // 0 stresses the repeat case
		count := 1 + rng.Intn(12)
		switch rng.Intn(4) {
		case 0: // ascending sweep
			for i := 0; i < count; i++ {
				out = append(out, Access{Addr: base + uint64(i)*stride,
					Width: width, Write: write, Atomic: atomic, PC: pc, Mutexes: mu})
			}
		case 1: // descending sweep — insert-time coalescing misses these
			for i := count - 1; i >= 0; i-- {
				out = append(out, Access{Addr: base + uint64(i)*stride,
					Width: width, Write: write, Atomic: atomic, PC: pc, Mutexes: mu})
			}
		case 2: // two interleaved streams (read+write of one array)
			for i := 0; i < count; i++ {
				a := Access{Addr: base + uint64(i)*stride, Width: width,
					Write: false, Atomic: atomic, PC: pc, Mutexes: mu}
				b := a
				b.Write = true
				b.PC = pc + 100
				out = append(out, a, b)
			}
		default: // noise
			out = append(out, Access{Addr: base, Width: width, Write: write,
				Atomic: atomic, PC: pc, Mutexes: mu})
		}
	}
	return out[:n]
}

// TestBuilderMatchesTree asserts the sort-based builder emits exactly the
// run that building a red-black tree and flattening it produces, with and
// without the Compact pass, over randomized access streams.
func TestBuilderMatchesTree(t *testing.T) {
	for _, compact := range []bool{true, false} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stream := randomStream(rng, 50+rng.Intn(800))

			var tree Tree
			var b Builder
			for _, a := range stream {
				tree.Insert(a)
				b.Insert(a)
			}
			if compact {
				tree.Compact()
			}
			want := tree.Nodes()
			got, _ := b.Finish(compact)

			if len(got) != len(want) {
				t.Fatalf("compact=%v seed=%d: builder %d nodes, tree %d",
					compact, seed, len(got), len(want))
			}
			for i := range want {
				if payload(&got[i]) != payload(&want[i].Run) {
					t.Fatalf("compact=%v seed=%d node %d:\nbuilder %s\ntree    %s",
						compact, seed, i, payload(&got[i]), payload(&want[i].Run))
				}
			}
			if b.Accesses() != tree.Accesses() {
				t.Fatalf("accesses: builder %d tree %d", b.Accesses(), tree.Accesses())
			}
			if b.Len() != tree.Len() {
				t.Fatalf("len: builder %d tree %d", b.Len(), tree.Len())
			}
		}
	}
}

// TestBuilderSummary cross-checks the unit summary against a brute-force
// pass over the finished run.
func TestBuilderSummary(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		var b Builder
		for _, a := range randomStream(rng, 200) {
			b.Insert(a)
		}
		run, sum := b.Finish(true)
		if len(run) == 0 {
			t.Fatal("empty run from non-empty stream")
		}
		wantLow, wantHigh := run[0].Low, uint64(0)
		anyWrite, allAtomic := false, true
		common := ^trace.MutexSet(0)
		for _, n := range run {
			if n.Low < wantLow {
				wantLow = n.Low
			}
			if e := n.LastByte(); e > wantHigh {
				wantHigh = e
			}
			anyWrite = anyWrite || n.Write
			allAtomic = allAtomic && n.Atomic
			common &= n.Mutexes
		}
		if sum.Low != wantLow || sum.High != wantHigh {
			t.Fatalf("bbox [%d,%d] want [%d,%d]", sum.Low, sum.High, wantLow, wantHigh)
		}
		if sum.AnyWrite != anyWrite || sum.AllAtomic != allAtomic || sum.CommonMutexes != common {
			t.Fatalf("summary %+v want write=%v atomic=%v common=%x",
				sum, anyWrite, allAtomic, uint64(common))
		}
		if want := uint64(cap(run)) * uint64(unsafe.Sizeof(Run{})); sum.Bytes != want {
			t.Fatalf("summary reports %d bytes, the finished run holds %d", sum.Bytes, want)
		}
	}
}

// TestBuilderEmpty: Finish on an untouched builder yields an empty,
// inverted-bbox summary so the pre-filter can never match it.
func TestBuilderEmpty(t *testing.T) {
	var b Builder
	run, sum := b.Finish(true)
	if len(run) != 0 || b.Len() != 0 || b.Accesses() != 0 {
		t.Fatalf("expected empty run, got %d nodes", len(run))
	}
	if sum.Low <= sum.High {
		t.Fatalf("empty summary bbox [%d,%d] not inverted", sum.Low, sum.High)
	}
}

// TestBuilderReset: a reset builder behaves like a fresh one.
func TestBuilderReset(t *testing.T) {
	var b Builder
	rng := rand.New(rand.NewSource(7))
	for _, a := range randomStream(rng, 100) {
		b.Insert(a)
	}
	b.Finish(true)
	b.Reset()
	if b.Len() != 0 || b.Accesses() != 0 {
		t.Fatal("reset builder not empty")
	}
	b.Insert(Access{Addr: 8, Width: 4, Write: true, PC: 1})
	run, sum := b.Finish(true)
	if len(run) != 1 || sum.Low != 8 || !sum.AnyWrite {
		t.Fatalf("post-reset run wrong: %d nodes, sum %+v", len(run), sum)
	}
}

// BenchmarkRunBuild compares the two unit-construction paths on the
// strided sweep workload that dominates the analyzer front end.
func BenchmarkRunBuild(b *testing.B) {
	const accesses = 1 << 14
	stream := make([]Access, 0, accesses)
	// Four interleaved strided streams, like a stencil loop body.
	for i := 0; i < accesses/4; i++ {
		addr := uint64(i) * 8
		stream = append(stream,
			Access{Addr: addr, Width: 8, PC: 1},
			Access{Addr: addr + 8, Width: 8, PC: 2},
			Access{Addr: addr, Width: 8, Write: true, PC: 3},
			Access{Addr: 1 << 20, Width: 8, PC: 4},
		)
	}
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var t Tree
			for _, a := range stream {
				t.Insert(a)
			}
			t.Compact()
			_ = t.Nodes()
		}
	})
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var bld Builder
			for _, a := range stream {
				bld.Insert(a)
			}
			bld.Finish(true)
		}
	})
}
