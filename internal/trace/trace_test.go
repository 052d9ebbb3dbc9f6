package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sword/internal/compress"
)

func TestMutexSet(t *testing.T) {
	var s MutexSet
	if !s.Empty() {
		t.Fatal("zero set not empty")
	}
	s = s.With(3).With(17)
	if !s.Has(3) || !s.Has(17) || s.Has(4) {
		t.Fatalf("membership wrong: %b", s)
	}
	if s.Empty() {
		t.Fatal("non-empty set reports empty")
	}
	other := MutexSet(0).With(17)
	if !s.Intersects(other) {
		t.Fatal("sets sharing mutex 17 do not intersect")
	}
	if s.Intersects(MutexSet(0).With(5)) {
		t.Fatal("disjoint sets intersect")
	}
	s = s.Without(17)
	if s.Has(17) || !s.Has(3) {
		t.Fatalf("Without wrong: %b", s)
	}
}

func TestEventRoundTrip(t *testing.T) {
	var enc Encoder
	want := []Event{
		{Kind: KindAccess, Addr: 0x1000, Size: 8, Write: true, PC: 7},
		{Kind: KindAccess, Addr: 0x1008, Size: 8, PC: 7},
		{Kind: KindMutexAcquire, Mutex: 3},
		{Kind: KindAccess, Addr: 0x0ff0, Size: 4, Atomic: true, PC: 9},
		{Kind: KindMutexRelease, Mutex: 3},
		{Kind: KindAccess, Addr: 0x2000, Size: 1, Write: true, Atomic: true, PC: 1290},
		{Kind: KindAccess, Addr: 0, Size: 2, PC: 0},
	}
	for _, ev := range want {
		switch ev.Kind {
		case KindAccess:
			enc.Access(ev.Addr, ev.Size, ev.Write, ev.Atomic, ev.PC)
		case KindMutexAcquire:
			enc.Acquire(ev.Mutex)
		case KindMutexRelease:
			enc.Release(ev.Mutex)
		}
	}
	if enc.Events() != len(want) {
		t.Fatalf("Events() = %d, want %d", enc.Events(), len(want))
	}
	dec := NewDecoder(enc.Bytes())
	for i, w := range want {
		var ev Event
		if err := dec.Next(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != w {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if dec.More() {
		t.Fatal("decoder has extra events")
	}
	if err := dec.Next(new(Event)); err == nil {
		t.Fatal("Next past end succeeded")
	}
}

func TestEncoderReset(t *testing.T) {
	var enc Encoder
	enc.Access(0x5000, 8, false, false, 1)
	first := append([]byte(nil), enc.Bytes()...)
	enc.Reset()
	enc.Access(0x5000, 8, false, false, 1)
	if !bytes.Equal(first, enc.Bytes()) {
		t.Fatal("Reset did not clear delta state")
	}
}

func TestEncoderSwap(t *testing.T) {
	var enc Encoder
	enc.Access(0x5000, 8, false, false, 1)
	want := append([]byte(nil), enc.Bytes()...)
	spare := make([]byte, 3, 64)
	full := enc.Swap(spare)
	if !bytes.Equal(full, want) {
		t.Fatalf("Swap returned % x, want % x", full, want)
	}
	if enc.Len() != 0 || enc.Events() != 0 {
		t.Fatalf("after Swap: len %d, events %d", enc.Len(), enc.Events())
	}
	enc.Access(0x5000, 8, false, false, 1)
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatal("Swap did not clear delta state")
	}
	if &enc.Bytes()[0] != &spare[:1][0] {
		t.Fatal("Swap copied instead of installing the given buffer")
	}
}

func TestAccessSizePanics(t *testing.T) {
	for _, size := range []uint8{0, 3, 5, 255} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", size)
				}
			}()
			var enc Encoder
			enc.Access(0, size, false, false, 0)
		}()
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{
		{0x03},       // unknown tag
		{0x01},       // acquire missing id
		{0x80},       // access missing delta
		{0x80, 0x05}, // access missing pc
	} {
		dec := NewDecoder(buf)
		var ev Event
		if err := dec.Next(&ev); err == nil {
			t.Errorf("decoding % x succeeded", buf)
		}
	}
}

func TestQuickEventRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var enc Encoder
		var want []Event
		for i := 0; i < 200; i++ {
			switch r.Intn(4) {
			case 0:
				ev := Event{Kind: KindMutexAcquire, Mutex: uint64(r.Intn(64))}
				enc.Acquire(ev.Mutex)
				want = append(want, ev)
			case 1:
				ev := Event{Kind: KindMutexRelease, Mutex: uint64(r.Intn(64))}
				enc.Release(ev.Mutex)
				want = append(want, ev)
			default:
				ev := Event{
					Kind:   KindAccess,
					Addr:   r.Uint64() >> uint(r.Intn(40)),
					Size:   1 << r.Intn(4),
					Write:  r.Intn(2) == 0,
					Atomic: r.Intn(4) == 0,
					PC:     uint64(r.Intn(4096)),
				}
				enc.Access(ev.Addr, ev.Size, ev.Write, ev.Atomic, ev.PC)
				want = append(want, ev)
			}
		}
		dec := NewDecoder(enc.Bytes())
		for _, w := range want {
			var ev Event
			if dec.Next(&ev) != nil || ev != w {
				return false
			}
		}
		return !dec.More()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	metas := []Meta{
		{PID: 0, PPID: NoParent, BID: 0, Offset: 0, Span: 24, Level: 1, DataBegin: 0, DataSize: 50000},
		{PID: 0, PPID: NoParent, BID: 1, Offset: 24, Span: 24, Level: 1, DataBegin: 50000, DataSize: 75000},
		{PID: 1, PPID: 0, BID: 0, Offset: 1, Span: 4, Level: 2, DataBegin: 125000, DataSize: 10000,
			ParentTID: 3, ParentBID: 1, Seq: 2},
	}
	var buf []byte
	for i := range metas {
		buf = AppendMeta(buf, &metas[i])
	}
	pos := 0
	for i := range metas {
		var m Meta
		n, err := DecodeMeta(buf[pos:], &m)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		pos += n
		if m != metas[i] {
			t.Fatalf("record %d = %+v, want %+v", i, m, metas[i])
		}
	}
	if pos != len(buf) {
		t.Fatalf("consumed %d of %d bytes", pos, len(buf))
	}
}

func TestMetaTIDAndKey(t *testing.T) {
	m := Meta{PID: 5, Offset: 2 + 3*4, Span: 4, BID: 3}
	if m.TID() != 2 {
		t.Fatalf("TID = %d, want 2", m.TID())
	}
	key := m.Key()
	if key != (IntervalKey{PID: 5, TID: 2, BID: 3}) {
		t.Fatalf("Key = %+v", key)
	}
}

// TestMetaTableI reproduces the structure of Table I: the example rows from
// the paper render with the documented columns.
func TestMetaTableI(t *testing.T) {
	metas := []Meta{
		{PID: 0, PPID: NoParent, BID: 0, Offset: 0, Span: 24, Level: 1, DataBegin: 0, DataSize: 50000},
		{PID: 0, PPID: NoParent, BID: 1, Offset: 0, Span: 24, Level: 1, DataBegin: 50000, DataSize: 75000},
		{PID: 1, PPID: NoParent, BID: 0, Offset: 0, Span: 24, Level: 1, DataBegin: 75000, DataSize: 10000},
	}
	got := FormatMetaTable(metas)
	want := "pid\tppid\tbid\toffset\tspan\tlevel\tdata begin\tsize\n" +
		"0\t-\t0\t0\t24\t1\t0\t50000\n" +
		"0\t-\t1\t0\t24\t1\t50000\t75000\n" +
		"1\t-\t0\t0\t24\t1\t75000\t10000\n"
	if got != want {
		t.Fatalf("FormatMetaTable:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, "ppid") {
		t.Fatal("missing header")
	}
}

func TestDecodeMetaErrors(t *testing.T) {
	m := Meta{PID: 1, PPID: 0, Span: 4}
	buf := AppendMeta(nil, &m)
	for cut := 0; cut < len(buf); cut++ {
		var got Meta
		if _, err := DecodeMeta(buf[:cut], &got); err == nil {
			t.Errorf("truncated meta at %d decoded", cut)
		}
	}
	// Zero span is invalid.
	bad := AppendMeta(nil, &Meta{PID: 1, Span: 0})
	var got Meta
	if _, err := DecodeMeta(bad, &got); err == nil {
		t.Error("zero-span meta decoded")
	}
}

func testLogRoundTrip(t *testing.T, store Store, codec compress.Codec) {
	t.Helper()
	sink, err := store.CreateLog(0)
	if err != nil {
		t.Fatal(err)
	}
	w := NewLogWriter(sink, codec)
	blocks := [][]byte{
		bytes.Repeat([]byte{0x9c, 0x10, 0x01}, 1000),
		[]byte("second block"),
		bytes.Repeat([]byte{7}, 100000),
	}
	var logical []uint64
	off := uint64(0)
	for _, blk := range blocks {
		logical = append(logical, off)
		if w.Logical() != off {
			t.Fatalf("Logical() = %d, want %d", w.Logical(), off)
		}
		if err := w.WriteBlock(blk); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(blk))
	}
	if err := w.WriteBlock(nil); err != nil { // empty block is a no-op
		t.Fatal(err)
	}
	if w.RawBytes() != off {
		t.Fatalf("RawBytes = %d, want %d", w.RawBytes(), off)
	}
	if codec.Name() != "raw" && w.CompressedBytes() >= w.RawBytes() {
		t.Errorf("%s: no compression: %d -> %d", codec.Name(), w.RawBytes(), w.CompressedBytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := store.OpenLog(0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewLogReader(src)
	for i, want := range blocks {
		start, raw, err := r.Next()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if start != logical[i] {
			t.Fatalf("block %d start = %d, want %d", i, start, logical[i])
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("block %d content mismatch (%d vs %d bytes)", i, len(raw), len(want))
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogRoundTripMem(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Raw{}, compress.LZSS{}, compress.NewFlate()} {
		t.Run(codec.Name(), func(t *testing.T) {
			testLogRoundTrip(t, NewMemStore(), codec)
		})
	}
}

func TestLogRoundTripDir(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testLogRoundTrip(t, store, compress.LZSS{})
	if store.BytesWritten() == 0 {
		t.Fatal("BytesWritten is zero after writes")
	}
}

func TestMetaWriterReader(t *testing.T) {
	for _, store := range []Store{NewMemStore(), mustDirStore(t)} {
		sink, err := store.CreateMeta(2)
		if err != nil {
			t.Fatal(err)
		}
		w := NewMetaWriter(sink)
		want := []Meta{
			{PID: 0, PPID: NoParent, BID: 0, Span: 8, Level: 1, DataSize: 100},
			{PID: 1, PPID: 0, BID: 0, Offset: 3, Span: 8, Level: 2, DataBegin: 100, DataSize: 50, ParentTID: 1, ParentBID: 0, Seq: 1},
		}
		for i := range want {
			if err := w.Append(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if w.Count() != 2 {
			t.Fatalf("Count = %d", w.Count())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		src, err := store.OpenMeta(2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAllMeta(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		slots, err := store.Slots()
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != 1 || slots[0] != 2 {
			t.Fatalf("Slots = %v, want [2]", slots)
		}
	}
}

func mustDirStore(t *testing.T) *DirStore {
	t.Helper()
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestAuxFiles(t *testing.T) {
	for _, store := range []Store{NewMemStore(), mustDirStore(t)} {
		w, err := store.CreateAux("pctable")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("hello aux")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := store.OpenAux("pctable")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil || string(data) != "hello aux" {
			t.Fatalf("aux read: %q, %v", data, err)
		}
		r.Close()
		if _, err := store.OpenAux("missing"); err == nil {
			t.Error("OpenAux(missing) succeeded")
		}
	}
}

// TestAuxPublishAtomic polls OpenAux from a second goroutine while a
// multi-write CreateAux is in progress: every read must see either no file
// or the whole file, never a prefix.
func TestAuxPublishAtomic(t *testing.T) {
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 256)
	const writes = 64
	want := bytes.Repeat(chunk, writes)
	for _, store := range []Store{NewMemStore(), mustDirStore(t)} {
		w, err := store.CreateAux("pctable")
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		seen := make(chan error, 1)
		go func() {
			var bad error
			for {
				select {
				case <-stop:
					seen <- bad
					return
				default:
				}
				r, err := store.OpenAux("pctable")
				if err != nil {
					continue
				}
				data, err := io.ReadAll(r)
				r.Close()
				if bad == nil && (err != nil || !bytes.Equal(data, want)) {
					bad = fmt.Errorf("%T: read %d of %d bytes (%v)", store, len(data), len(want), err)
				}
			}
		}()
		for i := 0; i < writes; i++ {
			if _, err := w.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := <-seen; err != nil {
			t.Error(err)
		}
		r, err := store.OpenAux("pctable")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(data, want) {
			t.Errorf("%T: published %d bytes, want %d", store, len(data), len(want))
		}
	}
}

func TestMemStoreMissingSlot(t *testing.T) {
	s := NewMemStore()
	if _, err := s.OpenLog(9); err == nil {
		t.Error("OpenLog on missing slot succeeded")
	}
	if _, err := s.OpenMeta(9); err == nil {
		t.Error("OpenMeta on missing slot succeeded")
	}
}

func BenchmarkEncodeAccess(b *testing.B) {
	var enc Encoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if enc.Len() > 1<<20 {
			enc.Reset()
		}
		enc.Access(uint64(0x10000+i*8), 8, i&1 == 0, false, 17)
	}
}

func BenchmarkDecodeAccess(b *testing.B) {
	var enc Encoder
	for i := 0; i < 25000; i++ {
		enc.Access(uint64(0x10000+i*8), 8, i&1 == 0, false, 17)
	}
	buf := enc.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var ev Event
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(buf)
		for dec.More() {
			if err := dec.Next(&ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestTaskWaitsRoundTrip(t *testing.T) {
	waits := map[uint64]uint64{3: 1, 17: 4, 1000: 0}
	var buf bytes.Buffer
	if err := WriteTaskWaits(&buf, waits); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTaskWaits(io.NopCloser(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(waits) {
		t.Fatalf("got %d entries, want %d", len(got), len(waits))
	}
	for id, cut := range waits {
		if got[id] != cut {
			t.Fatalf("id %d: cut %d, want %d", id, got[id], cut)
		}
	}
	// Truncations must error, not panic.
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut++ {
		if _, err := ReadTaskWaits(io.NopCloser(bytes.NewReader(data[:cut]))); err == nil {
			t.Fatalf("truncated task waits at %d decoded", cut)
		}
	}
}

func TestTaskWaitsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTaskWaits(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTaskWaits(io.NopCloser(bytes.NewReader(buf.Bytes())))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}
