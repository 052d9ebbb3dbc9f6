package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"sword/internal/compress"
)

type byteSink struct{ bytes.Buffer }

func (b *byteSink) Close() error { return nil }

// buildLog writes blocks through a LogWriter of the given version and
// returns the raw file bytes.
func buildLog(t *testing.T, version int, codec compress.Codec, blocks [][]byte) []byte {
	t.Helper()
	var sink byteSink
	w := NewLogWriterVersion(&sink, codec, version)
	for _, blk := range blocks {
		if err := w.WriteBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

func readerFor(data []byte) *LogReader {
	return NewLogReader(io.NopCloser(bytes.NewReader(data)))
}

func TestLogVersionDetect(t *testing.T) {
	blocks := [][]byte{[]byte("hello"), []byte("world block two")}
	for _, tc := range []struct{ version int }{{FormatV1}, {FormatV2}} {
		data := buildLog(t, tc.version, compress.LZSS{}, blocks)
		if tc.version == FormatV2 && !bytes.HasPrefix(data, []byte(logMagic)) {
			t.Fatalf("v2 log missing magic")
		}
		if tc.version == FormatV1 && bytes.HasPrefix(data, []byte(logMagic)) {
			t.Fatalf("v1 log has v2 magic")
		}
		r := readerFor(data)
		for i, want := range blocks {
			_, raw, err := r.Next()
			if err != nil {
				t.Fatalf("v%d block %d: %v", tc.version, i, err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("v%d block %d content mismatch", tc.version, i)
			}
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("v%d: expected EOF, got %v", tc.version, err)
		}
		if r.Version() != tc.version {
			t.Fatalf("detected version %d, want %d", r.Version(), tc.version)
		}
		if !r.Salvage().Clean() {
			t.Fatalf("v%d: clean log reported damage: %s", tc.version, r.Salvage())
		}
	}
}

// TestLogV1ByteIdentical pins the legacy framing: a v1 writer must emit
// exactly varint(rawLen) varint(compLen) codec-id payload per block, so
// traces written for old readers stay bit-compatible.
func TestLogV1ByteIdentical(t *testing.T) {
	codec := compress.LZSS{}
	blocks := [][]byte{bytes.Repeat([]byte{0x9c, 0x10, 0x01}, 500), []byte("tail")}
	var want []byte
	for _, blk := range blocks {
		comp := codec.Compress(nil, blk)
		want = binary.AppendUvarint(want, uint64(len(blk)))
		want = binary.AppendUvarint(want, uint64(len(comp)))
		want = append(want, codec.ID())
		want = append(want, comp...)
	}
	got := buildLog(t, FormatV1, codec, blocks)
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 framing not byte-identical: got %d bytes, want %d", len(got), len(want))
	}
}

func TestLogSalvageCorruptMiddleBlock(t *testing.T) {
	blocks := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 200),
		bytes.Repeat([]byte{3}, 300),
	}
	data := buildLog(t, FormatV2, compress.Raw{}, blocks)
	// Flip one payload byte inside block 1. With the raw codec the file
	// layout is deterministic: magic, then per block 2 varints + id + crc +
	// payload.
	off := len(logMagic)
	for i := 0; i < 1; i++ { // skip block 0
		_, n1 := binary.Uvarint(data[off:])
		c, n2 := binary.Uvarint(data[off+n1:])
		off += n1 + n2 + 1 + 4 + int(c)
	}
	_, n1 := binary.Uvarint(data[off:])
	_, n2 := binary.Uvarint(data[off+n1:])
	data[off+n1+n2+1+4+10] ^= 0xFF // payload byte of block 1

	// Strict mode: error, not a skip.
	r := readerFor(data)
	if _, _, err := r.Next(); err != nil {
		t.Fatalf("block 0 should be intact: %v", err)
	}
	if _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("strict read of corrupt block: %v", err)
	}

	// Reading on past the damage: blocks 0 and 2 recovered, block 1
	// reported lost.
	r = readerFor(data)
	var starts []uint64
	var sizes []int
	damaged := 0
	for {
		start, raw, err := r.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTraceDamaged) {
			damaged++
			continue
		}
		if err != nil {
			t.Fatalf("tolerant read: %v", err)
		}
		starts = append(starts, start)
		sizes = append(sizes, len(raw))
	}
	if damaged != 1 {
		t.Fatalf("%d damage errors, want 1", damaged)
	}
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 300 || sizes[0] != 100 || sizes[1] != 300 {
		t.Fatalf("salvaged starts %v sizes %v, want [0 300] [100 300]", starts, sizes)
	}
	rep := r.Salvage()
	if rep.Clean() || rep.Truncated {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CorruptBlocks != 1 || rep.LostBytes != 200 || rep.SalvagedBytes != 400 {
		t.Fatalf("corrupt=%d lost=%d salvaged=%d", rep.CorruptBlocks, rep.LostBytes, rep.SalvagedBytes)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].LogicalStart != 100 || rep.Entries[0].LogicalEnd != 300 {
		t.Fatalf("lost ranges = %v", rep.Entries)
	}
	// Logical accounting covers corrupt blocks too, so write- and
	// read-side byte totals keep agreeing.
	if r.RawBytes() != 600 || r.Blocks() != 3 {
		t.Fatalf("RawBytes=%d Blocks=%d", r.RawBytes(), r.Blocks())
	}
}

func TestLogSalvageTornTail(t *testing.T) {
	blocks := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 200)}
	full := buildLog(t, FormatV2, compress.Raw{}, blocks)
	data := full[:len(full)-50] // crash mid-write of block 1's payload

	r := readerFor(data)
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("strict read of torn tail: %v", err)
	}

	r = readerFor(data)
	_, raw, err := r.Next()
	if err != nil || len(raw) != 100 {
		t.Fatalf("intact prefix: %d bytes, %v", len(raw), err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrTraceDamaged) {
		t.Fatalf("tolerant torn tail: %v", err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("reader must stay dead after truncation: %v", err)
	}
	rep := r.Salvage()
	if !rep.Truncated || rep.CorruptBlocks != 0 || rep.SalvagedBytes != 100 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestLogImplausibleFraming pins the anti-OOM cap: framing that declares a
// multi-gigabyte block must fail as a decode error before any allocation.
func TestLogImplausibleFraming(t *testing.T) {
	for _, tc := range []struct {
		name            string
		rawLen, compLen uint64
	}{
		{"huge raw", 1 << 40, 10},
		{"huge comp", 10, 1 << 40},
		{"zero raw", 0, 10},
	} {
		var data []byte
		data = binary.AppendUvarint(data, tc.rawLen)
		data = binary.AppendUvarint(data, tc.compLen)
		data = append(data, 0) // raw codec
		data = append(data, make([]byte, 16)...)

		r := readerFor(data)
		if _, _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("%s: strict read: %v", tc.name, err)
		}
		r = readerFor(data)
		if _, _, err := r.Next(); !errors.Is(err, ErrTraceDamaged) {
			t.Fatalf("%s: tolerant read: %v", tc.name, err)
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("%s: read after truncation: %v", tc.name, err)
		}
		if !r.Salvage().Truncated {
			t.Fatalf("%s: truncation not reported", tc.name)
		}
	}
}

// TestLyingHeaderEndsStream: a block whose payload passes its checksum but
// does not decompress to the declared length had its header hit. Stepping
// over the declared span would shift every later block's logical offsets,
// so the stream ends there instead, as a truncation.
func TestLyingHeaderEndsStream(t *testing.T) {
	blocks := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 200), bytes.Repeat([]byte{3}, 300)}
	data := buildLog(t, FormatV2, compress.LZSS{}, blocks)
	off := len(logMagic)
	_, n1 := binary.Uvarint(data[off:])
	c, n2 := binary.Uvarint(data[off+n1:])
	off += n1 + n2 + 1 + 4 + int(c)
	data[off] ^= 0x01 // block 1's raw length: 200 becomes 201

	r := readerFor(data)
	if _, raw, err := r.Next(); err != nil || len(raw) != 100 {
		t.Fatalf("block 0: %d bytes, %v", len(raw), err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrTraceDamaged) {
		t.Fatalf("lying header: %v, want the damage", err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("read after a lying header: %v, want io.EOF", err)
	}
	if rep := r.Salvage(); !rep.Truncated || rep.CorruptBlocks != 0 {
		t.Fatalf("report = %+v, want a truncation", rep)
	}
}

// TestDamagedMagicReadsAsV2: one byte hit in a v2 file's magic must not
// turn the reader to v1, which would decode the checksummed frames as
// unchecked garbage. The stream reads as v2, the magic is reported as
// damage, and every block and record still comes back.
func TestDamagedMagicReadsAsV2(t *testing.T) {
	blocks := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 200)}
	metas := testMetas()
	for i := 0; i < len(logMagic); i++ {
		data := buildLog(t, FormatV2, compress.LZSS{}, blocks)
		data[i] ^= 0x10
		r := readerFor(data)
		if _, _, err := r.Next(); !errors.Is(err, ErrTraceDamaged) {
			t.Fatalf("log magic byte %d: first read %v, want the damage", i, err)
		}
		for j, want := range blocks {
			if _, raw, err := r.Next(); err != nil || !bytes.Equal(raw, want) {
				t.Fatalf("log magic byte %d: block %d: %v", i, j, err)
			}
		}
		if _, _, err := r.Next(); err != io.EOF || r.Version() != FormatV2 {
			t.Fatalf("log magic byte %d: end %v, version %d", i, err, r.Version())
		}

		mdata := buildMeta(t, FormatV2, metas)
		mdata[i] ^= 0x10
		got, err := ReadAllMeta(io.NopCloser(bytes.NewReader(mdata)))
		if !errors.Is(err, ErrTraceDamaged) || len(got) != len(metas) {
			t.Fatalf("meta magic byte %d: %d records, %v", i, len(got), err)
		}
	}
}

func TestWriteBlockTooLarge(t *testing.T) {
	var sink byteSink
	w := NewLogWriter(&sink, compress.Raw{})
	if err := w.WriteBlock(make([]byte, MaxBlockBytes+1)); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func buildMeta(t *testing.T, version int, metas []Meta) []byte {
	t.Helper()
	var sink byteSink
	w := NewMetaWriterVersion(&sink, version)
	for i := range metas {
		if err := w.Append(&metas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

func testMetas() []Meta {
	return []Meta{
		{PID: 0, PPID: NoParent, BID: 0, Span: 4, Level: 1, DataSize: 100},
		{PID: 0, PPID: NoParent, BID: 1, Offset: 4, Span: 4, Level: 1, DataBegin: 100, DataSize: 60},
		{PID: 1, PPID: 0, BID: 0, Offset: 2, Span: 2, Level: 2, DataBegin: 160, DataSize: 40, ParentTID: 1, Seq: 1},
	}
}

// TestMetaV1ByteIdentical pins the legacy meta stream: bare concatenated
// records, no magic, no framing.
func TestMetaV1ByteIdentical(t *testing.T) {
	metas := testMetas()
	var want []byte
	for i := range metas {
		want = AppendMeta(want, &metas[i])
	}
	got := buildMeta(t, FormatV1, metas)
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 meta not byte-identical: got %d bytes, want %d", len(got), len(want))
	}
	rd, err := ReadAllMeta(io.NopCloser(bytes.NewReader(got)))
	if err != nil || len(rd) != len(metas) {
		t.Fatalf("read back: %d records, %v", len(rd), err)
	}
}

func TestMetaSalvageTornTail(t *testing.T) {
	for _, version := range []int{FormatV1, FormatV2} {
		metas := testMetas()
		full := buildMeta(t, version, metas)
		data := full[:len(full)-3] // crash mid-append of the last record

		_, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data)))
		if err == nil {
			t.Fatalf("v%d: strict read of torn meta succeeded", version)
		}
		// Satellite: the strict error names the intact-record count.
		if !strings.Contains(err.Error(), "2 intact") {
			t.Fatalf("v%d: error does not count intact records: %v", version, err)
		}

		got, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data)))
		var rep *SalvageReport
		if !errors.As(err, &rep) {
			t.Fatalf("v%d: tolerant read: %v", version, err)
		}
		if len(got) != 2 || rep.IntactRecords != 2 || !rep.Truncated {
			t.Fatalf("v%d: got %d records, report %+v", version, len(got), rep)
		}
		for i := range got {
			if got[i] != metas[i] {
				t.Fatalf("v%d: record %d = %+v, want %+v", version, i, got[i], metas[i])
			}
		}
	}
}

func TestMetaCorruptRecordCRC(t *testing.T) {
	metas := testMetas()
	data := buildMeta(t, FormatV2, metas)
	// Flip a byte in the second record's body: skip magic + record 0.
	off := len(metaMagic)
	l, n := binary.Uvarint(data[off:])
	off += n + int(l) + 5
	_, n = binary.Uvarint(data[off:])
	data[off+n] ^= 0xFF

	if _, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data))); err == nil {
		t.Fatal("strict read of corrupt meta succeeded")
	}
	got, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data)))
	var rep *SalvageReport
	if !errors.As(err, &rep) {
		t.Fatal(err)
	}
	// The intact prefix stops at the damage: meta records are not
	// independently framed streams like log blocks, so there is no resync.
	if len(got) != 1 || !rep.Truncated {
		t.Fatalf("got %d records, report %+v", len(got), rep)
	}
}

func TestDirStoreCloseJoinsErrors(t *testing.T) {
	store := mustDirStore(t)
	var files []*dirFile
	for i := 0; i < 2; i++ {
		w, err := store.CreateLog(i)
		if err != nil {
			t.Fatal(err)
		}
		f := w.(*dirFile)
		files = append(files, f)
		if err := f.f.Close(); err != nil { // force Close failure: double close
			t.Fatal(err)
		}
	}
	err := store.Close()
	if err == nil {
		t.Fatal("Close returned nil with two failing writers")
	}
	// errors.Join output carries one line per joined error.
	if n := len(strings.Split(err.Error(), "\n")); n != 2 {
		t.Fatalf("joined error has %d lines, want 2: %v", n, err)
	}
}

func TestSlotsSkipEmptyMeta(t *testing.T) {
	store := mustDirStore(t)
	// Slot 1: a committed record.
	sink, err := store.CreateMeta(1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewMetaWriter(sink)
	m := testMetas()[0]
	if err := w.Append(&m); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Slot 3: crashed before the first record committed — zero bytes.
	sink, err = store.CreateMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 || slots[0] != 1 {
		t.Fatalf("Slots = %v, want [1]", slots)
	}
}

func TestFaultStoreWriteBudget(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.FailWritesAfter(10, nil)
	w, err := fs.CreateLog(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 8)); err != nil {
		t.Fatalf("in-budget write: %v", err)
	}
	if _, err := w.Write(make([]byte, 5)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-budget write: %v", err)
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("post-fault write: %v", err)
	}
	if fs.WriteFailures() != 2 {
		t.Fatalf("WriteFailures = %d", fs.WriteFailures())
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.FailWritesAfter(4, nil)
	fs.SetTornWrites(true)
	w, _ := fs.CreateLog(0)
	n, err := w.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	r, err := mem.OpenLog(0)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "0123" {
		t.Fatalf("persisted %q, want the in-budget prefix", data)
	}
}

func TestFaultStoreCloseAndMutateRead(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	boom := errors.New("close failed")
	fs.FailClose(boom)
	w, _ := fs.CreateAux("pctable")
	if _, err := w.Write([]byte("1\tmain.c:3\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v", err)
	}
	fs.FailClose(nil)

	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "aux:pctable" {
			t.Fatalf("mutate hook saw %q", name)
		}
		return data[:4]
	})
	r, err := fs.OpenAux("pctable")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "1\tma" {
		t.Fatalf("mutated read = %q", data)
	}
}
