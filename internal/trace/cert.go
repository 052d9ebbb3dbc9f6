package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Extension meta records.
//
// Format v2 frames every meta record as
//
//	uvarint bodyLen | body | crc32c(body) LE | marker
//
// with marker 0xC5 for a barrier-interval fragment (Meta). The trailing
// marker byte doubles as the record-type discriminator: marker 0xC6
// introduces an *extension* record whose body begins with a uvarint
// record type followed by a type-specific payload. Readers that do not
// understand a record type skip it by the length framing, so new record
// types never break old analyzers — the property the loop-certificate
// subsystem relies on. v1 streams never contain extension records.
const metaExt = 0xC6

// Extension record types.
const (
	// certRecType is a static worksharing-loop certificate (LoopCert).
	certRecType = 1
)

// Loop schedule kinds as persisted in a certificate. Only the static
// schedules are certifiable; the values are part of the trace format.
const (
	CertSchedStatic = 0 // contiguous chunks, ForOpt's default split
	CertSchedCyclic = 1 // round-robin chunks of Chunk iterations
)

// CertDecl is one captured affine access pattern of a certified loop:
// for iteration i the program touches the Span elements starting at
// element Stride·i+Offset of the array at Base, each Elem bytes wide.
type CertDecl struct {
	Base   uint64 // first byte of the array
	Elem   uint64 // element width in bytes (1, 4 or 8)
	Stride int64  // elements advanced per iteration
	Offset int64  // element offset of the block's first element
	Span   uint64 // elements touched per iteration (>= 1)
	Write  bool
	PC     uint64
}

// Addr returns the address of the k-th element of iteration i.
func (d *CertDecl) Addr(i int64, k uint64) uint64 {
	return d.Base + d.Elem*uint64(d.Stride*i+d.Offset+int64(k))
}

// CertThread is one participating thread's view of a certified loop:
// its interval identity (TID — the trace thread id — plus the fragment
// cut position at arm time) and, per declaration, how many accesses the
// collection-side filter dropped. Dropped accesses are always a prefix
// of the thread's captured-access sequence in canonical order (chunk
// pieces ascending, iterations ascending, block elements ascending), so
// the analyzer can rematerialize them exactly.
type CertThread struct {
	TID     uint64
	Cut     uint64
	Dropped []uint64 // per-decl dropped access counts, len == len(Decls)
}

// LoopCert is a static worksharing-loop certificate: the thread →
// iteration-chunk mapping of one statically scheduled loop plus the
// affine access declarations whose pairwise disjointness across threads
// was proven at arm time. Clean certificates additionally promise the
// loop's captured accesses were the *only* accesses of each thread's
// barrier interval, so the analyzer may retire the whole pair class;
// voided certificates only promise the dropped-access counts are exact,
// and the analyzer rematerializes them before comparison.
type LoopCert struct {
	PID     uint64 // parallel region id
	BID     uint64 // barrier interval the loop ran in
	Sched   uint8  // CertSchedStatic or CertSchedCyclic
	Chunk   int64  // cyclic chunk size (>= 1); unused for static
	Lo      int64  // loop bounds [Lo, Hi)
	Hi      int64
	NT      uint64 // team size
	Clean   bool
	Decls   []CertDecl
	Threads []CertThread
}

// PiecesFor appends thread t's iteration ranges [start, end) to buf and
// returns it. The ranges replicate the runtime's worksharing split
// exactly — static: one contiguous piece with the remainder spread over
// the first Hi-Lo mod NT threads; cyclic: round-robin Chunk-sized
// pieces — and are emitted in execution order. This is the single
// source of truth for the split: the executing loop, the disjointness
// proof, and the analyzer's rematerialization all derive from it.
func (c *LoopCert) PiecesFor(t uint64, buf [][2]int64) [][2]int64 {
	lo, hi, nt := c.Lo, c.Hi, int64(c.NT)
	if hi <= lo || int64(t) >= nt {
		return buf
	}
	if c.Sched == CertSchedStatic {
		n := hi - lo
		chunk, rem := n/nt, n%nt
		start := lo + int64(t)*chunk + min(int64(t), rem)
		end := start + chunk
		if int64(t) < rem {
			end++
		}
		if start < end {
			buf = append(buf, [2]int64{start, end})
		}
		return buf
	}
	chunk := c.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	for base := lo + int64(t)*chunk; base < hi; base += nt * chunk {
		end := min(base+chunk, hi)
		buf = append(buf, [2]int64{base, end})
	}
	return buf
}

// DroppedAccesses calls emit for thread entry th's first
// Threads[th].Dropped[d] accesses of declaration d in canonical order —
// exactly the accesses the collection-side filter dropped. It returns
// the number of accesses emitted (less than the recorded count only on
// a corrupt certificate whose count exceeds the loop's footprint).
func (c *LoopCert) DroppedAccesses(th, d int, emit func(addr uint64)) uint64 {
	if th >= len(c.Threads) || d >= len(c.Decls) {
		return 0
	}
	want := c.Threads[th].Dropped[d]
	if want == 0 {
		return 0
	}
	decl := &c.Decls[d]
	var done uint64
	var scratch [4][2]int64
	for _, piece := range c.PiecesFor(uint64(th), scratch[:0]) {
		for i := piece[0]; i < piece[1]; i++ {
			for k := uint64(0); k < decl.Span; k++ {
				emit(decl.Addr(i, k))
				done++
				if done == want {
					return done
				}
			}
		}
	}
	return done
}

// appendCert encodes a certificate payload (without the extension-record
// type tag or framing).
func appendCert(dst []byte, c *LoopCert) []byte {
	dst = binary.AppendUvarint(dst, c.PID)
	dst = binary.AppendUvarint(dst, c.BID)
	dst = binary.AppendUvarint(dst, uint64(c.Sched))
	dst = binary.AppendVarint(dst, c.Chunk)
	dst = binary.AppendVarint(dst, c.Lo)
	dst = binary.AppendVarint(dst, c.Hi)
	dst = binary.AppendUvarint(dst, c.NT)
	clean := uint64(0)
	if c.Clean {
		clean = 1
	}
	dst = binary.AppendUvarint(dst, clean)
	dst = binary.AppendUvarint(dst, uint64(len(c.Decls)))
	for i := range c.Decls {
		d := &c.Decls[i]
		dst = binary.AppendUvarint(dst, d.Base)
		dst = binary.AppendUvarint(dst, d.Elem)
		dst = binary.AppendVarint(dst, d.Stride)
		dst = binary.AppendVarint(dst, d.Offset)
		dst = binary.AppendUvarint(dst, d.Span)
		w := uint64(0)
		if d.Write {
			w = 1
		}
		dst = binary.AppendUvarint(dst, w)
		dst = binary.AppendUvarint(dst, d.PC)
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Threads)))
	for i := range c.Threads {
		t := &c.Threads[i]
		dst = binary.AppendUvarint(dst, t.TID)
		dst = binary.AppendUvarint(dst, t.Cut)
		for _, n := range t.Dropped {
			dst = binary.AppendUvarint(dst, n)
		}
	}
	return dst
}

// maxCertList bounds the declared declaration and thread counts of an
// untrusted certificate record; with the record body already bounded by
// maxMetaRecordBytes this only guards against implausible-length
// allocations before the payload runs out.
const maxCertList = 1024

// decodeCert decodes a certificate payload produced by appendCert. It
// must consume src exactly.
func decodeCert(src []byte, c *LoopCert) error {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return 0, errors.New("truncated certificate record")
		}
		pos += n
		return v, nil
	}
	nextSigned := func() (int64, error) {
		v, n := binary.Varint(src[pos:])
		if n <= 0 {
			return 0, errors.New("truncated certificate record")
		}
		pos += n
		return v, nil
	}
	var err error
	read := func(dst *uint64) {
		if err == nil {
			*dst, err = next()
		}
	}
	readSigned := func(dst *int64) {
		if err == nil {
			*dst, err = nextSigned()
		}
	}
	read(&c.PID)
	read(&c.BID)
	var sched uint64
	read(&sched)
	readSigned(&c.Chunk)
	readSigned(&c.Lo)
	readSigned(&c.Hi)
	read(&c.NT)
	var clean uint64
	read(&clean)
	var ndecl uint64
	read(&ndecl)
	if err != nil {
		return err
	}
	if sched > CertSchedCyclic {
		return fmt.Errorf("unknown certificate schedule %d", sched)
	}
	c.Sched = uint8(sched)
	c.Clean = clean == 1
	if ndecl > maxCertList {
		return fmt.Errorf("implausible certificate declaration count %d", ndecl)
	}
	c.Decls = make([]CertDecl, ndecl)
	for i := range c.Decls {
		d := &c.Decls[i]
		read(&d.Base)
		read(&d.Elem)
		readSigned(&d.Stride)
		readSigned(&d.Offset)
		read(&d.Span)
		var w uint64
		read(&w)
		read(&d.PC)
		if err != nil {
			return err
		}
		d.Write = w == 1
		if d.Span == 0 || d.Elem == 0 {
			return errors.New("certificate declaration with zero span or element width")
		}
	}
	var nth uint64
	read(&nth)
	if err != nil {
		return err
	}
	if nth > maxCertList {
		return fmt.Errorf("implausible certificate thread count %d", nth)
	}
	c.Threads = make([]CertThread, nth)
	for i := range c.Threads {
		t := &c.Threads[i]
		read(&t.TID)
		read(&t.Cut)
		t.Dropped = make([]uint64, ndecl)
		for d := range t.Dropped {
			read(&t.Dropped[d])
		}
		if err != nil {
			return err
		}
	}
	if pos != len(src) {
		return fmt.Errorf("certificate record is %d bytes but its encoding uses %d", len(src), pos)
	}
	return nil
}

// AppendCert writes one loop-certificate extension record. Extension
// records exist only in format v2; a v1 writer returns an error rather
// than corrupting the bare-record stream.
func (w *MetaWriter) AppendCert(c *LoopCert) error {
	if w.version != FormatV2 {
		return errors.New("trace: certificate records require format v2")
	}
	w.buf = binary.AppendUvarint(w.buf[:0], certRecType)
	w.buf = appendCert(w.buf, c)
	if len(w.buf) > maxMetaRecordBytes {
		return fmt.Errorf("trace: certificate record is %d bytes, exceeding the %d-byte record bound",
			len(w.buf), maxMetaRecordBytes)
	}
	w.head = binary.AppendUvarint(w.head[:0], uint64(len(w.buf)))
	var tail [5]byte
	binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(w.buf, castagnoli))
	tail[4] = metaExt
	w.buf = append(w.buf, tail[:]...)
	if _, err := w.w.Write(w.head); err != nil {
		return fmt.Errorf("trace: write certificate record: %w", err)
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("trace: write certificate record: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: commit certificate record: %w", err)
	}
	return nil
}

// CertBound returns a conservative upper bound on the encoded size of a
// certificate with the given declaration and thread counts. The runtime
// refuses to arm a certificate whose bound exceeds the meta-record size
// limit, so dropping never starts for a record that could not be
// persisted.
func CertBound(decls, threads int) int {
	// 10 bytes per uvarint/varint: 10 fixed header fields, 7 per decl,
	// (2 + decls) per thread, plus the record-type tag.
	return 10 * (1 + 10 + 7*decls + threads*(2+decls))
}

// MaxCertRecordBytes is the size bound AppendCert enforces.
const MaxCertRecordBytes = maxMetaRecordBytes

// ReadAllMetaCerts is ReadAllMeta plus the loop-certificate extension
// records interleaved in the stream.
func ReadAllMetaCerts(r io.ReadCloser) ([]Meta, []LoopCert, error) {
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: read meta file: %w", err)
	}
	metas, certs, rep := decodeAllMetaCerts(data)
	return metas, certs, rep.Err()
}
