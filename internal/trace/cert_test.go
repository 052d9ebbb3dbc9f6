package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

func testCert() *LoopCert {
	return &LoopCert{
		PID: 7, BID: 3, Sched: CertSchedCyclic, Chunk: 2, Lo: 1, Hi: 33, NT: 4,
		Clean: false,
		Decls: []CertDecl{
			{Base: 0x1000, Elem: 8, Stride: 3, Offset: -2, Span: 4, Write: true, PC: 0x40},
			{Base: 0x9000, Elem: 4, Stride: 1, Offset: 0, Span: 1, Write: false, PC: 0x41},
		},
		Threads: []CertThread{
			{TID: 0, Cut: 0, Dropped: []uint64{12, 8}},
			{TID: 1, Cut: 2, Dropped: []uint64{0, 0}},
			{TID: 2, Cut: 0, Dropped: []uint64{16, 16}},
			{TID: 3, Cut: 1, Dropped: []uint64{4, 0}},
		},
	}
}

// TestCertRoundTrip: certificate records survive the meta stream
// alongside fragment records, in order, without disturbing the Metas.
func TestCertRoundTrip(t *testing.T) {
	var sink byteSink
	w := NewMetaWriter(&sink)
	metas := testMetas()
	if err := w.Append(&metas[0]); err != nil {
		t.Fatal(err)
	}
	cert := testCert()
	if err := w.AppendCert(cert); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&metas[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := sink.Bytes()

	// The cert-aware reader returns both record kinds.
	got, certs, err := ReadAllMetaCerts(io.NopCloser(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], metas[0]) || !reflect.DeepEqual(got[1], metas[1]) {
		t.Fatalf("metas disturbed by interleaved cert: %+v", got)
	}
	if len(certs) != 1 || !reflect.DeepEqual(&certs[0], cert) {
		t.Fatalf("cert round trip: got %+v, want %+v", certs, cert)
	}

	// The legacy readers skip extension records silently.
	legacy, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != 2 {
		t.Fatalf("legacy reader saw %d metas, want 2", len(legacy))
	}
}

// TestCertUnknownRecTypeSkipped: a future extension record type must be
// skipped by the length framing, not rejected.
func TestCertUnknownRecTypeSkipped(t *testing.T) {
	var sink byteSink
	w := NewMetaWriter(&sink)
	metas := testMetas()
	if err := w.Append(&metas[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := sink.Bytes()

	// Hand-frame an extension record of unknown type 99.
	body := binary.AppendUvarint(nil, 99)
	body = append(body, 0xDE, 0xAD, 0xBE, 0xEF)
	rec := binary.AppendUvarint(nil, uint64(len(body)))
	rec = append(rec, body...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, castagnoli))
	rec = append(rec, metaExt)
	data = append(data, rec...)

	got, certs, err := ReadAllMetaCerts(io.NopCloser(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("unknown extension record rejected: %v", err)
	}
	if len(got) != 1 || len(certs) != 0 {
		t.Fatalf("got %d metas, %d certs; want 1, 0", len(got), len(certs))
	}
}

// TestCertV1Refused: the v1 bare-record stream has no framing for
// extension records.
func TestCertV1Refused(t *testing.T) {
	var sink byteSink
	w := NewMetaWriterVersion(&sink, FormatV1)
	if err := w.AppendCert(testCert()); err == nil {
		t.Fatal("v1 writer accepted a certificate record")
	}
}

// TestCertOversizedRefused: a certificate that would exceed the record
// size bound is refused at write time, never torn.
func TestCertOversizedRefused(t *testing.T) {
	c := testCert()
	c.Decls = make([]CertDecl, 600)
	for i := range c.Decls {
		c.Decls[i] = CertDecl{Base: ^uint64(0) - 1, Elem: 8, Span: 1, PC: ^uint64(0) - 1}
	}
	c.Threads = nil
	var sink byteSink
	w := NewMetaWriter(&sink)
	if err := w.AppendCert(c); err == nil {
		t.Fatal("oversized certificate record accepted")
	}
}

// TestCertTornTail: a cert record cut mid-frame is an error, and the
// error is a truncation report beside the records before the cut.
func TestCertTornTail(t *testing.T) {
	var sink byteSink
	w := NewMetaWriter(&sink)
	metas := testMetas()
	if err := w.Append(&metas[0]); err != nil {
		t.Fatal(err)
	}
	intact := len(sink.Bytes())
	if err := w.AppendCert(testCert()); err != nil {
		t.Fatal(err)
	}
	full := sink.Bytes()
	torn := full[:intact+(len(full)-intact)/2]

	if _, _, err := ReadAllMetaCerts(io.NopCloser(bytes.NewReader(torn))); err == nil {
		t.Fatal("strict reader accepted a torn cert record")
	}
	ms, certs, err := ReadAllMetaCerts(io.NopCloser(bytes.NewReader(torn)))
	var rep *SalvageReport
	if !errors.As(err, &rep) {
		t.Fatal(err)
	}
	if !rep.Truncated || len(ms) != 1 || len(certs) != 0 {
		t.Fatalf("tolerant read of torn cert: truncated=%v metas=%d certs=%d", rep.Truncated, len(ms), len(certs))
	}
}

// TestCertPieces pins the worksharing split against the runtime's ForOpt
// chunk math for both schedules.
func TestCertPieces(t *testing.T) {
	static := &LoopCert{Sched: CertSchedStatic, Lo: 1, Hi: 12, NT: 3}
	wantStatic := [][][2]int64{{{1, 5}}, {{5, 9}}, {{9, 12}}} // 11 iters: 4,4,3
	for tid, want := range wantStatic {
		got := static.PiecesFor(uint64(tid), nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("static thread %d: got %v, want %v", tid, got, want)
		}
	}
	cyc := &LoopCert{Sched: CertSchedCyclic, Chunk: 2, Lo: 0, Hi: 10, NT: 2}
	wantCyc := [][][2]int64{{{0, 2}, {4, 6}, {8, 10}}, {{2, 4}, {6, 8}}}
	for tid, want := range wantCyc {
		got := cyc.PiecesFor(uint64(tid), nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cyclic thread %d: got %v, want %v", tid, got, want)
		}
	}
}

// TestCertDroppedAccesses: rematerialization enumerates the canonical
// prefix — pieces ascending, iterations ascending, block elements
// ascending.
func TestCertDroppedAccesses(t *testing.T) {
	c := &LoopCert{
		Sched: CertSchedCyclic, Chunk: 1, Lo: 0, Hi: 8, NT: 2,
		Decls:   []CertDecl{{Base: 0x100, Elem: 8, Stride: 1, Offset: 0, Span: 2, Write: true, PC: 1}},
		Threads: []CertThread{{TID: 0, Dropped: []uint64{5}}, {TID: 1, Dropped: []uint64{0}}},
	}
	var got []uint64
	n := c.DroppedAccesses(0, 0, func(addr uint64) { got = append(got, addr) })
	// Thread 0 runs iterations 0, 2, 4, 6; span 2 → blocks [0,1],[2,3],...
	want := []uint64{0x100, 0x108, 0x110, 0x118, 0x120}
	if n != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("dropped accesses: n=%d got %#x, want %#x", n, got, want)
	}
	// A corrupt count larger than the footprint stops at the footprint.
	c.Threads[0].Dropped[0] = 1000
	if n := c.DroppedAccesses(0, 0, func(uint64) {}); n != 8 {
		t.Fatalf("corrupt count: emitted %d, want 8", n)
	}
}
