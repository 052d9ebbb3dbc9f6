package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sword/internal/compress"
)

// Log file framing, format v2 (the default): the file opens with the magic
// "SWL2\x00", followed by a sequence of blocks, each
//
//	uvarint rawLen | uvarint compLen | codec id byte |
//	uint32 LE CRC32-C of payload | compLen payload bytes
//
// Format v1 has no magic and no checksum — a block is
// rawLen|compLen|codec|payload. The reader auto-detects the version from
// the magic: no valid v1 log can begin with the magic bytes, because they
// would parse as a block with codec id 'L', which no codec uses.
//
// A block holds exactly one flushed collector buffer, so event decoding
// state (the address-delta register) resets at block boundaries on both
// sides. Meta-data offsets are logical (uncompressed) positions; the reader
// recovers them by accumulating rawLen while streaming.
//
// The CRC is computed over the compressed payload. Torn or bit-flipped
// payloads therefore lose exactly one block: its framing still tells the
// reader how many bytes to skip and which logical span was lost, which is
// what the reader reports before it reads on.

// Format versions of the log and meta streams.
const (
	// FormatV1 is the original unchecksummed framing, still read
	// transparently for traces collected before v2.
	FormatV1 = 1
	// FormatV2 adds the file magic, per-block payload CRC32-C in logs, and
	// length-prefixed, checksummed, commit-marked meta records.
	FormatV2 = 2
)

const (
	logMagic  = "SWL2\x00"
	metaMagic = "SWM2\x00"
	// metaCommit trails every v2 meta record: an appended record counts
	// only once its commit marker is present, so a crash mid-append leaves
	// a detectable torn tail instead of a silently misparsed stream.
	metaCommit = 0xC5
)

// MaxBlockBytes bounds the declared decompressed size of one log block.
// The collector flushes buffers far smaller than this (the paper's default
// is ~2 MB); the bound exists so corrupt framing in an untrusted log can
// never coerce the reader into a multi-gigabyte allocation.
const MaxBlockBytes = 64 << 20

// maxCompBlockBytes bounds the declared compressed payload size: raw size
// plus a generous incompressibility margin.
const maxCompBlockBytes = MaxBlockBytes + MaxBlockBytes/8 + 1024

// maxMetaRecordBytes bounds a v2 meta record body: a record is fifteen
// uvarints, at most ten bytes each.
const maxMetaRecordBytes = 4096

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64), the integrity check of the v2 framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail reports that a tail-mode reader ran into the torn end of a
// file that is still being written: a frame whose header committed but
// whose remaining bytes have not landed yet. It is retriable — once the
// writer commits more bytes, Resume rewinds to the frame boundary and
// reading continues. Only real integrity damage (checksum mismatch over a
// fully present payload, implausible framing) is reported as corruption.
var ErrTornTail = errors.New("trace: torn tail of an in-progress file")

// errFrameTorn marks a v2 meta frame that stops mid-record: with a live
// writer it means "wait for more bytes", post-mortem it means a crash
// tore the tail. MetaTail keys retriability off it.
var errFrameTorn = errors.New("crash mid-append or write in progress")

// LogWriter frames, compresses and writes event blocks to a log sink.
// WriteBlock must be called from one goroutine at a time (the collector's
// flush pipeline schedules each slot on at most one worker); the byte
// counters are atomic so live Stats reads never race with a flush in
// flight.
type LogWriter struct {
	w       *bufio.Writer
	c       io.Closer
	codec   compress.Codec
	version int
	logical uint64
	scratch []byte
	head    [2*binary.MaxVarintLen64 + 5]byte
	rawIn   atomic.Uint64
	compOut atomic.Uint64
}

// NewLogWriter returns a writer that compresses blocks with codec and
// writes them to w in the current format (v2, checksummed).
func NewLogWriter(w io.WriteCloser, codec compress.Codec) *LogWriter {
	return NewLogWriterVersion(w, codec, FormatV2)
}

// NewLogWriterVersion is NewLogWriter with an explicit format version —
// FormatV1 reproduces the legacy unchecksummed framing byte for byte.
func NewLogWriterVersion(w io.WriteCloser, codec compress.Codec, version int) *LogWriter {
	if version != FormatV1 {
		version = FormatV2
	}
	lw := &LogWriter{w: bufio.NewWriterSize(w, 64<<10), c: w, codec: codec, version: version}
	if version == FormatV2 {
		lw.w.WriteString(logMagic) // buffered; errors surface at flush/close
	}
	return lw
}

// Version returns the format version the writer emits.
func (w *LogWriter) Version() int { return w.version }

// Logical returns the logical (uncompressed) offset at which the next
// block will begin.
func (w *LogWriter) Logical() uint64 { return w.logical }

// RawBytes returns the total uncompressed bytes accepted.
func (w *LogWriter) RawBytes() uint64 { return w.rawIn.Load() }

// CompressedBytes returns the total compressed payload bytes emitted.
func (w *LogWriter) CompressedBytes() uint64 { return w.compOut.Load() }

// WriteBlock compresses raw and appends it as one block. Empty blocks are
// dropped; blocks over MaxBlockBytes are rejected (the reader would refuse
// their framing).
func (w *LogWriter) WriteBlock(raw []byte) error {
	if len(raw) == 0 {
		return nil
	}
	if len(raw) > MaxBlockBytes {
		return fmt.Errorf("trace: block of %d bytes exceeds MaxBlockBytes (%d)", len(raw), MaxBlockBytes)
	}
	w.scratch = w.codec.Compress(w.scratch[:0], raw)
	n := binary.PutUvarint(w.head[:], uint64(len(raw)))
	n += binary.PutUvarint(w.head[n:], uint64(len(w.scratch)))
	w.head[n] = w.codec.ID()
	n++
	if w.version == FormatV2 {
		binary.LittleEndian.PutUint32(w.head[n:], crc32.Checksum(w.scratch, castagnoli))
		n += 4
	}
	if _, err := w.w.Write(w.head[:n]); err != nil {
		return fmt.Errorf("trace: write block header: %w", err)
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		return fmt.Errorf("trace: write block payload: %w", err)
	}
	w.logical += uint64(len(raw))
	w.rawIn.Add(uint64(len(raw)))
	w.compOut.Add(uint64(len(w.scratch)))
	return nil
}

// Flush pushes every buffered block through to the sink without closing
// it. Live-flush collection calls it after each block so a concurrent
// tail-mode reader observes frames at block granularity instead of at the
// bufio boundary; the cost is one syscall per flushed buffer.
func (w *LogWriter) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush log: %w", err)
	}
	return nil
}

// Close flushes buffered data and closes the underlying sink.
func (w *LogWriter) Close() error {
	if err := w.w.Flush(); err != nil {
		w.c.Close()
		return fmt.Errorf("trace: flush log: %w", err)
	}
	return w.c.Close()
}

// LogReader streams blocks back from a log source, decompressing each and
// tracking logical offsets. It also counts blocks and compressed payload
// bytes, so the offline phase can report the trace volume it consumed
// without a second pass over the store.
//
// Damage is an error value, not a mode. A block whose payload fails its
// integrity check comes back as a *SalvageReport error naming the lost
// logical span; the framing was consumed, so the next call reads on at the
// following block. Framing damage the reader cannot resynchronize past (a
// torn tail, implausible sizes) comes back as a truncation report and then
// io.EOF. A caller that stops at its first error reads strictly; one that
// reads on past ErrTraceDamaged salvages, and Salvage accumulates every
// piece of damage either way.
type LogReader struct {
	r        *bufio.Reader
	c        io.ReadCloser
	bufs     *logReaderBufs
	version  int // 0 until the first read detects it
	off      uint64
	logical  uint64
	comp     []byte
	raw      []byte
	blocks   uint64
	compIn   uint64
	skipped  uint64
	skippedB uint64
	tail     bool
	torn     bool
	tornOff  uint64 // file offset of the frame the torn tail cut
	dead     bool
	crc      [4]byte // checksum scratch; a local would escape via io.ReadFull
	salvage  SalvageReport
}

// logReaderBufs are the reusable per-reader staging buffers: the bufio
// window over the source plus the compressed and decompressed block
// slices. Batched analysis opens a fresh LogReader per slot per batch, so
// without pooling every re-stream reallocates all three; recycling them
// across readers keeps steady-state batch scans allocation-free.
type logReaderBufs struct {
	br   *bufio.Reader
	comp []byte
	raw  []byte
}

// maxPooledBufBytes caps the staging slices a retiring reader may park in
// the pool. Typical blocks are ~2 MiB; one pathological oversized block
// must not pin tens of megabytes per pooled entry.
const maxPooledBufBytes = 8 << 20

var logReaderPool = sync.Pool{
	New: func() any { return &logReaderBufs{br: bufio.NewReaderSize(nil, 64<<10)} },
}

// NewLogReader returns a reader over r. The format version and the
// codec of each block are identified from the stream, so v1 logs and
// mixed-codec logs decode correctly.
func NewLogReader(r io.ReadCloser) *LogReader {
	bufs := logReaderPool.Get().(*logReaderBufs)
	bufs.br.Reset(r)
	return &LogReader{r: bufs.br, c: r, bufs: bufs, comp: bufs.comp, raw: bufs.raw}
}

// SetTail switches the reader into (or out of) tail mode, for following a
// log that is still being written. In tail mode an end-of-data condition
// inside a frame — header bytes committed, payload still on its way — is
// reported as the retriable ErrTornTail instead of a truncation; a clean
// end at a frame boundary
// is still io.EOF, and calling Next again after the file grew continues
// reading. After ErrTornTail, call Resume once more bytes are durable.
func (r *LogReader) SetTail(on bool) { r.tail = on }

// Torn reports whether the last read stopped on a torn tail (ErrTornTail).
func (r *LogReader) Torn() bool { return r.torn }

// Offset returns the file offset of the last clean frame boundary the
// reader reached — after a clean io.EOF or an ErrTornTail in tail mode,
// the committed-frame frontier.
func (r *LogReader) Offset() uint64 {
	if r.torn {
		return r.tornOff
	}
	return r.off
}

// Resume repositions a tail-mode reader at the last clean frame boundary
// so reading can continue after a torn tail. With src nil the current
// source is rewound in place, which requires it to be an io.Seeker (a
// DirStore log is an *os.File); otherwise src must be a freshly opened
// reader over the same file, which replaces the current source and is
// advanced to the boundary. Resume is a no-op when nothing was torn.
func (r *LogReader) Resume(src io.ReadCloser) error {
	target := r.off
	if r.torn {
		target = r.tornOff
	}
	if src != nil {
		r.c.Close()
		r.c = src
	} else if !r.torn {
		return nil
	}
	if s, ok := r.c.(io.Seeker); ok {
		if _, err := s.Seek(int64(target), io.SeekStart); err != nil {
			return fmt.Errorf("trace: resume tail: %w", err)
		}
		r.r.Reset(r.c)
	} else {
		r.r.Reset(r.c)
		for skip := target; skip > 0; {
			n, err := r.r.Discard(int(min(skip, 1<<30)))
			skip -= uint64(n)
			if err != nil {
				return fmt.Errorf("trace: resume tail: %w", err)
			}
		}
	}
	r.off = target
	r.torn = false
	r.dead = false
	return nil
}

// Salvage returns the damage report accumulated so far — every error
// matching ErrTraceDamaged the reader returned. Call after the stream
// returned io.EOF; Clean reports whether the log decoded fully.
func (r *LogReader) Salvage() *SalvageReport { return &r.salvage }

// Version returns the detected format version, 0 before the first read.
func (r *LogReader) Version() int { return r.version }

// uvarintReader adapts the reader's counted byte reads for binary.ReadUvarint.
type uvarintReader struct{ r *LogReader }

func (u uvarintReader) ReadByte() (byte, error) { return u.r.readByte() }

func (r *LogReader) readByte() (byte, error) {
	b, err := r.r.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

func (r *LogReader) readUvarint() (uint64, error) {
	return binary.ReadUvarint(uvarintReader{r})
}

func (r *LogReader) readFull(p []byte) error {
	n, err := io.ReadFull(r.r, p)
	r.off += uint64(n)
	return err
}

func (r *LogReader) discard(n int) error {
	m, err := r.r.Discard(n)
	r.off += uint64(m)
	return err
}

// detect identifies the stream's format version from the file magic. No
// valid v1 log starts with the magic bytes (they would declare codec id
// 'L', which does not exist), so absence of the magic means v1 — unless
// the magic is there with one byte hit (see magicDiff): then the stream
// is v2, and detect returns that damage once.
func (r *LogReader) detect() error {
	if r.version != 0 {
		return nil
	}
	b, err := r.r.Peek(len(logMagic))
	if diff := magicDiff(b, logMagic); err == nil && diff <= 1 {
		r.discard(len(logMagic))
		r.version = FormatV2
		if diff == 1 {
			e := SalvageEntry{Cause: "damaged file magic"}
			r.salvage.add(e)
			return &SalvageReport{Entries: []SalvageEntry{e}}
		}
		return nil
	}
	if r.tail && err != nil {
		// Fewer bytes than the magic are durable yet: with a live writer
		// the version cannot be decided, so stay undetected — the next
		// read attempt re-peeks after the file grew. Latching v1 here
		// would misparse the rest of the magic as a block header.
		return nil
	}
	r.version = FormatV1
	return nil
}

// magicDiff counts the bytes in which b's prefix differs from magic (all
// of them when b is shorter). A stream one byte off is read as v2 with a
// damaged magic, not as v1: reading it as v1 would decode its checksummed
// frames as unchecked garbage, and a v1 stream starting that way would
// need a first record or block header made of nearly the magic's bytes.
func magicDiff(b []byte, magic string) int {
	diff := max(len(magic)-len(b), 0)
	for i := range min(len(b), len(magic)) {
		if b[i] != magic[i] {
			diff++
		}
	}
	return diff
}

// Next returns the logical start offset and decompressed contents of the
// next block. The returned slice is reused by subsequent calls and
// recycled by Close — callers must finish with it before either. It
// returns io.EOF after the last block. A damaged block or frame returns a
// *SalvageReport error (ErrTraceDamaged) instead of a block; the caller
// may call Next again to read on past it.
func (r *LogReader) Next() (uint64, []byte, error) { return r.NextFrom(nil) }

// NextFrom is Next with a block-skipping fast path: for every block it
// first reads only the framing (raw length, compressed length, codec id,
// checksum) and consults skip with the block's logical span; a skipped
// block's compressed payload is discarded without decompressing — and, in
// v2, without verifying its checksum — and the scan continues with the
// following block. A nil skip decodes everything, exactly like Next.
//
// Skipped blocks still count into Blocks, RawBytes and CompressedBytes —
// their framing was consumed, and the write-side totals must keep agreeing
// with the read-side ones — and additionally into BlocksSkipped and
// SkippedBytes, the work the fast path avoided. The offline analyzer uses
// this under SubtreeBatch and for the live analyzer's sealed intervals to
// fly over blocks whose span intersects no interval fragment of the pass.
// A skipped payload is not integrity-checked and its raw length is taken
// on trust: a lying one shifts every later offset, found only by a reader
// that decodes the block, whose stream then ends there.
func (r *LogReader) NextFrom(skip func(start, rawLen uint64) bool) (uint64, []byte, error) {
	start, raw, err := r.NextInto(r.raw, skip)
	if raw != nil {
		r.raw = raw
	}
	return start, raw, err
}

// NextInto is NextFrom decompressing into dst's backing array instead of
// the reader's staging slice: the block overwrites dst from its start and
// the returned slice aliases dst unless the block outgrew its capacity.
// The reader keeps no reference to dst, so a caller that owns a set of
// buffers can decode one on another goroutine while the reader fills the
// next — the analyzer's per-slot pipeline, which then needs no copy.
func (r *LogReader) NextInto(dst []byte, skip func(start, rawLen uint64) bool) (uint64, []byte, error) {
	if r.dead {
		return 0, nil, io.EOF
	}
	if err := r.detect(); err != nil {
		return 0, nil, err
	}
	if r.version == 0 {
		return 0, nil, io.EOF // tail mode: not enough bytes to even detect
	}
	for {
		blockOff := r.off
		rawLen, err := r.readUvarint()
		if err != nil {
			if errors.Is(err, io.EOF) && r.off == blockOff {
				return 0, nil, io.EOF // clean end at a block boundary
			}
			return 0, nil, r.fail(blockOff, "truncated block header", err)
		}
		compLen, err := r.readUvarint()
		if err != nil {
			return 0, nil, r.fail(blockOff, "truncated block header", err)
		}
		// Sanity-cap the declared sizes before allocating: corrupt framing
		// must become a decode error, not a multi-gigabyte allocation.
		if rawLen == 0 || rawLen > MaxBlockBytes || compLen == 0 || compLen > maxCompBlockBytes {
			return 0, nil, r.fail(blockOff,
				fmt.Sprintf("implausible block framing (raw %d, compressed %d)", rawLen, compLen), nil)
		}
		id, err := r.readByte()
		if err != nil {
			return 0, nil, r.fail(blockOff, "truncated block header", err)
		}
		var wantCRC uint32
		if r.version == FormatV2 {
			if err := r.readFull(r.crc[:]); err != nil {
				return 0, nil, r.fail(blockOff, "truncated block checksum", err)
			}
			wantCRC = binary.LittleEndian.Uint32(r.crc[:])
		}
		start := r.logical
		if skip != nil && skip(start, rawLen) {
			if err := r.discard(int(compLen)); err != nil {
				return 0, nil, r.fail(blockOff, "truncated block payload", err)
			}
			r.logical += rawLen
			r.blocks++
			r.compIn += compLen
			r.skipped++
			r.skippedB += compLen
			continue
		}
		if cap(r.comp) < int(compLen) {
			r.comp = make([]byte, compLen)
		}
		r.comp = r.comp[:compLen]
		if err := r.readFull(r.comp); err != nil {
			return 0, nil, r.fail(blockOff, "truncated block payload", err)
		}
		// Payload-level damage loses exactly this block: the framing was
		// fully consumed, so the stream stays in sync and the next call
		// reads on at the next block.
		if r.version == FormatV2 && crc32.Checksum(r.comp, castagnoli) != wantCRC {
			return 0, nil, r.corrupt(blockOff, start, rawLen, compLen, "payload crc mismatch")
		}
		// A payload that passed its checksum (or has none, in v1) but does
		// not decode means the header lied — a hit codec id or raw length.
		// The declared span is then no measure of the logical offsets that
		// follow, and stepping over it would shift every later event into
		// the wrong interval: framing damage, the stream ends here.
		codec, err := compress.ByID(id)
		if err != nil {
			return 0, nil, r.fail(blockOff, err.Error(), nil)
		}
		// Size dst for the whole block up front: growing it by append
		// would leave a chain of garbage buffers behind on every block
		// that outgrows it.
		raw, err := codec.Decompress(slices.Grow(dst[:0], int(rawLen)), r.comp, int(rawLen))
		if err != nil {
			return 0, nil, r.fail(blockOff, err.Error(), nil)
		}
		r.logical += rawLen
		r.blocks++
		r.compIn += compLen
		r.salvage.SalvagedBytes += rawLen
		return start, raw, nil
	}
}

// corrupt records a block whose payload failed its checksum — its
// declared logical span is lost — steps over it, and returns the damage
// as an error.
func (r *LogReader) corrupt(blockOff, start, rawLen, compLen uint64, cause string) error {
	e := SalvageEntry{
		Block: int(r.blocks), Offset: blockOff,
		LogicalStart: start, LogicalEnd: start + rawLen,
		Cause: cause,
	}
	r.salvage.add(e)
	r.salvage.CorruptBlocks++
	r.salvage.LostBytes += rawLen
	r.logical += rawLen
	r.blocks++
	r.compIn += compLen
	return &SalvageReport{Entries: []SalvageEntry{e}, CorruptBlocks: 1, LostBytes: rawLen}
}

// fail ends the stream at unrecoverable framing damage — a torn tail or
// framing bytes the reader cannot resynchronize past: it records a
// truncation and returns it as an error, and every later call returns
// io.EOF, so the caller keeps everything read before the damage.
func (r *LogReader) fail(off uint64, cause string, err error) error {
	if r.tail && err != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		// The frame stops where the durable bytes do: the writer is (or
		// was) mid-append. Remember the frame boundary for Resume and
		// surface the retriable condition — in tail mode this is the
		// expected steady state, not damage, so no salvage entry either.
		r.torn = true
		r.tornOff = off
		return fmt.Errorf("trace: block %d at offset %d: %s: %w", r.blocks, off, cause, ErrTornTail)
	}
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		cause += ": " + err.Error() // a read failure, not the end of the bytes
	}
	e := SalvageEntry{Block: int(r.blocks), Offset: off, Cause: cause}
	r.dead = true
	r.salvage.Truncated = true
	r.salvage.add(e)
	return &SalvageReport{Entries: []SalvageEntry{e}, Truncated: true}
}

// Blocks returns the number of blocks read so far — one per collector
// flush on the write side.
func (r *LogReader) Blocks() uint64 { return r.blocks }

// RawBytes returns the total decompressed bytes read so far.
func (r *LogReader) RawBytes() uint64 { return r.logical }

// CompressedBytes returns the total compressed payload bytes read so far
// (excluding block framing).
func (r *LogReader) CompressedBytes() uint64 { return r.compIn }

// BlocksSkipped returns how many blocks NextFrom discarded without
// decompressing.
func (r *LogReader) BlocksSkipped() uint64 { return r.skipped }

// SkippedBytes returns the compressed payload bytes NextFrom discarded
// without decompressing.
func (r *LogReader) SkippedBytes() uint64 { return r.skippedB }

// Close closes the underlying source and recycles the reader's staging
// buffers, invalidating any slice a previous Next/NextFrom returned.
// Close is idempotent with respect to the buffer pool; only the first
// call returns the buffers.
func (r *LogReader) Close() error {
	if b := r.bufs; b != nil {
		r.bufs = nil
		r.dead = true // post-Close reads report io.EOF, never touch pooled state
		r.r = nil
		if cap(r.comp) <= maxPooledBufBytes {
			b.comp = r.comp[:0]
		}
		if cap(r.raw) <= maxPooledBufBytes {
			b.raw = r.raw[:0]
		}
		r.comp, r.raw = nil, nil
		b.br.Reset(nil)
		logReaderPool.Put(b)
	}
	return r.c.Close()
}

// Meta stream framing, format v2 (the default): the file opens with the
// magic "SWM2\x00", followed by records, each
//
//	uvarint bodyLen | bodyLen bytes (the v1 record encoding) |
//	uint32 LE CRC32-C of body | commit byte 0xC5
//
// The writer flushes after every record, so the commit marker doubles as a
// durability boundary: a crash mid-append leaves a torn tail that the
// reader detects and cuts off, keeping every committed record.
// Format v1 is bare concatenated records; the reader auto-detects the
// version (no valid v1 stream starts with the magic — it would declare a
// zero span in its fifth field, which DecodeMeta rejects).

// MetaWriter writes meta-data records to a sink.
type MetaWriter struct {
	w       *bufio.Writer
	c       io.Closer
	version int
	buf     []byte
	head    []byte
	n       int
}

// NewMetaWriter returns a writer over w in the current format (v2,
// checksummed and commit-marked).
func NewMetaWriter(w io.WriteCloser) *MetaWriter {
	return NewMetaWriterVersion(w, FormatV2)
}

// NewMetaWriterVersion is NewMetaWriter with an explicit format version —
// FormatV1 reproduces the legacy bare-record stream byte for byte.
func NewMetaWriterVersion(w io.WriteCloser, version int) *MetaWriter {
	if version != FormatV1 {
		version = FormatV2
	}
	mw := &MetaWriter{w: bufio.NewWriter(w), c: w, version: version}
	if version == FormatV2 {
		mw.w.WriteString(metaMagic) // buffered; errors surface at flush/close
	}
	return mw
}

// Version returns the format version the writer emits.
func (w *MetaWriter) Version() int { return w.version }

// Append writes one meta record. In v2 the record is committed — length,
// body, checksum, commit marker — and the stream is flushed, so records a
// crash loses are exactly the ones Append never returned from.
func (w *MetaWriter) Append(m *Meta) error {
	w.buf = AppendMeta(w.buf[:0], m)
	if w.version == FormatV2 {
		w.head = binary.AppendUvarint(w.head[:0], uint64(len(w.buf)))
		var tail [5]byte
		binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(w.buf, castagnoli))
		tail[4] = metaCommit
		w.buf = append(w.buf, tail[:]...)
		if _, err := w.w.Write(w.head); err != nil {
			return fmt.Errorf("trace: write meta record: %w", err)
		}
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("trace: write meta record: %w", err)
	}
	if w.version == FormatV2 {
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("trace: commit meta record: %w", err)
		}
	}
	w.n++
	return nil
}

// Count returns the number of records appended.
func (w *MetaWriter) Count() int { return w.n }

// Close flushes and closes the sink.
func (w *MetaWriter) Close() error {
	if err := w.w.Flush(); err != nil {
		w.c.Close()
		return fmt.Errorf("trace: flush meta: %w", err)
	}
	return w.c.Close()
}

// ReadAllMeta decodes every meta record from r and closes it. On a torn
// or damaged record it returns the intact records before the damage
// together with a *SalvageReport error (ErrTraceDamaged) whose message
// counts them; any other error is an I/O failure reading r itself.
func ReadAllMeta(r io.ReadCloser) ([]Meta, error) {
	metas, _, err := ReadAllMetaCerts(r)
	return metas, err
}

// decodeAllMetaCerts decodes a whole meta stream, stopping at the first
// damaged record: meta records are not independently framed like log
// blocks, so there is no resynchronizing past damage.
func decodeAllMetaCerts(data []byte) ([]Meta, []LoopCert, *SalvageReport) {
	rep := &SalvageReport{}
	version := FormatV1
	pos := 0
	if diff := magicDiff(data, metaMagic); diff <= 1 && len(data) >= len(metaMagic) {
		if diff == 1 {
			rep.add(SalvageEntry{Cause: "damaged file magic"})
		}
		version = FormatV2
		pos = len(metaMagic)
	}
	var out []Meta
	var certs []LoopCert
	for pos < len(data) {
		var m Meta
		var n int
		var err error
		isMeta := true
		if version == FormatV2 {
			var body []byte
			var marker byte
			body, marker, n, err = decodeV2Frame(data[pos:])
			if err == nil {
				switch marker {
				case metaCommit:
					var used int
					used, err = DecodeMeta(body, &m)
					if err == nil && used != len(body) {
						err = fmt.Errorf("record body is %d bytes but its encoding uses %d", len(body), used)
					}
				case metaExt:
					// Extension record: uvarint record type, then a
					// type-specific payload. Unknown types are skipped by
					// the length framing — old analyzers tolerate records
					// newer collectors write.
					isMeta = false
					recType, k := binary.Uvarint(body)
					if k <= 0 {
						err = errors.New("truncated extension record")
					} else if recType == certRecType {
						var c LoopCert
						if err = decodeCert(body[k:], &c); err == nil {
							certs = append(certs, c)
						}
					}
				}
			}
		} else {
			n, err = DecodeMeta(data[pos:], &m)
		}
		if err != nil {
			rep.Truncated = true
			rep.add(SalvageEntry{Block: len(out), Offset: uint64(pos),
				Cause: fmt.Sprintf("%v (%d intact record(s) before it)", err, len(out))})
			break
		}
		pos += n
		rep.SalvagedBytes += uint64(n)
		if isMeta {
			out = append(out, m)
		}
	}
	rep.IntactRecords = len(out)
	return out, certs, rep
}

// decodeV2Frame parses one committed v2 record frame from src — length,
// body, checksum, marker — verifying the checksum and returning the body,
// the marker byte (the record-type discriminator) and the bytes consumed.
func decodeV2Frame(src []byte) ([]byte, byte, int, error) {
	bodyLen, n := binary.Uvarint(src)
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("torn record length: %w", errFrameTorn)
	}
	if n < 0 {
		return nil, 0, 0, errors.New("overlong record length")
	}
	if bodyLen == 0 || bodyLen > maxMetaRecordBytes {
		return nil, 0, 0, fmt.Errorf("implausible record length %d", bodyLen)
	}
	pos := n
	if len(src) < pos+int(bodyLen)+5 {
		return nil, 0, 0, fmt.Errorf("torn record: %w", errFrameTorn)
	}
	body := src[pos : pos+int(bodyLen)]
	pos += int(bodyLen)
	want := binary.LittleEndian.Uint32(src[pos:])
	pos += 4
	marker := src[pos]
	if marker != metaCommit && marker != metaExt {
		return nil, 0, 0, errors.New("missing commit marker")
	}
	pos++
	if crc32.Checksum(body, castagnoli) != want {
		return nil, 0, 0, errors.New("record crc mismatch")
	}
	return body, marker, pos, nil
}

// FormatMetaTable renders meta records in the layout of Table I of the
// paper: one line per barrier-interval fragment with columns pid, ppid,
// bid, offset, span, level, data begin, size.
func FormatMetaTable(metas []Meta) string {
	var b strings.Builder
	b.WriteString("pid\tppid\tbid\toffset\tspan\tlevel\tdata begin\tsize\n")
	for i := range metas {
		m := &metas[i]
		pp := "-"
		if m.PPID != NoParent {
			pp = strconv.FormatUint(m.PPID, 10)
		}
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			m.PID, pp, m.BID, m.Offset, m.Span, m.Level, m.DataBegin, m.DataSize)
	}
	return b.String()
}

// WriteTaskWaits serializes taskwait cuts (tasking extension) as binary
// records: uvarint count, then uvarint (task region id, wait cut) pairs in
// ascending id order.
func WriteTaskWaits(w io.Writer, waits map[uint64]uint64) error {
	ids := make([]uint64, 0, len(waits))
	for id := range waits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
		buf = binary.AppendUvarint(buf, waits[id])
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("trace: write task waits: %w", err)
	}
	return nil
}

// ReadTaskWaits parses records written by WriteTaskWaits and closes r.
func ReadTaskWaits(r io.ReadCloser) (map[uint64]uint64, error) {
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read task waits: %w", err)
	}
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated task waits at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]uint64, count)
	for i := uint64(0); i < count; i++ {
		id, err := next()
		if err != nil {
			return nil, err
		}
		cut, err := next()
		if err != nil {
			return nil, err
		}
		out[id] = cut
	}
	return out, nil
}
