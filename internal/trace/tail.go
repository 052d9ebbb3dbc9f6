package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// Tailing readers for online analysis: follow a trace that is still being
// written, delivering exactly the committed prefix of each file and never
// mistaking the torn tail of an in-progress append for corruption.
//
// The durability contract of format v2 makes this sound. Meta records are
// flushed per append with a trailing commit marker, so the committed
// records of a live meta file are exactly the complete frames; log blocks
// carry their length up front, so a block is committed exactly when every
// declared byte is durable. Both tails therefore advance monotonically at
// frame granularity, and a reader positioned at a frame boundary either
// sees the next whole frame or the end of the durable bytes.

// MetaTail incrementally decodes a growing v2 meta stream: each Poll reads
// the bytes committed since the previous one and returns every newly
// committed record. A torn frame at the end of the durable bytes is the
// live writer's steady state and simply ends the poll; only checksum or
// framing damage over fully present bytes is an error. v1 meta streams
// have no commit markers and cannot be tailed.
type MetaTail struct {
	store   Store
	slot    int
	read    int64  // file bytes consumed into buf so far
	buf     []byte // undecoded remainder carried between polls
	version int    // 0 until enough bytes landed to detect
	records int
	metas   int // records that were interval metas (not extensions)
}

// NewMetaTail returns a tail over the meta file of a thread slot. The
// file need not exist yet; polls before the collector creates it return
// nothing.
func NewMetaTail(store Store, slot int) *MetaTail {
	return &MetaTail{store: store, slot: slot}
}

// Records returns the number of committed meta records delivered so far.
func (t *MetaTail) Records() int { return t.records }

// Poll reads newly durable bytes and returns the newly committed meta
// records and loop certificates, in file order. Both slices are nil when
// nothing new committed. An error means real damage (or I/O failure), not
// an in-progress append — polling again will not help.
func (t *MetaTail) Poll() ([]Meta, []LoopCert, error) {
	src, err := t.store.OpenMeta(t.slot)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("trace: tail meta slot %d: %w", t.slot, err)
	}
	defer src.Close()
	if err := skipConsumed(src, t.read); err != nil {
		return nil, nil, fmt.Errorf("trace: tail meta slot %d: %w", t.slot, err)
	}
	fresh, err := io.ReadAll(src)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: tail meta slot %d: %w", t.slot, err)
	}
	t.read += int64(len(fresh))
	t.buf = append(t.buf, fresh...)

	if t.version == 0 {
		if len(t.buf) < len(metaMagic) {
			return nil, nil, nil // cannot even detect the version yet
		}
		if !bytes.HasPrefix(t.buf, []byte(metaMagic)) {
			return nil, nil, fmt.Errorf("trace: tail meta slot %d: stream is not format v2 (no commit markers to tail)", t.slot)
		}
		t.version = FormatV2
		t.buf = t.buf[len(metaMagic):]
	}

	var metas []Meta
	var certs []LoopCert
	pos := 0
	for pos < len(t.buf) {
		body, marker, n, err := decodeV2Frame(t.buf[pos:])
		if errors.Is(err, errFrameTorn) {
			break // the append in progress; the rest arrives later
		}
		if err != nil {
			return metas, certs, fmt.Errorf("trace: tail meta slot %d, record %d: %w", t.slot, t.records, err)
		}
		switch marker {
		case metaCommit:
			var m Meta
			used, err := DecodeMeta(body, &m)
			if err == nil && used != len(body) {
				err = fmt.Errorf("record body is %d bytes but its encoding uses %d", len(body), used)
			}
			if err != nil {
				return metas, certs, fmt.Errorf("trace: tail meta slot %d, record %d: %w", t.slot, t.records, err)
			}
			metas = append(metas, m)
			t.metas++
		case metaExt:
			// Extension record: uvarint record type, then a type-specific
			// payload. Unknown types are skipped by the length framing.
			recType, k := binary.Uvarint(body)
			if k <= 0 {
				return metas, certs, fmt.Errorf("trace: tail meta slot %d, record %d: truncated extension record", t.slot, t.records)
			}
			if recType == certRecType {
				var c LoopCert
				if err := decodeCert(body[k:], &c); err != nil {
					return metas, certs, fmt.Errorf("trace: tail meta slot %d, record %d: %w", t.slot, t.records, err)
				}
				certs = append(certs, c)
			}
		}
		pos += n
		t.records++
	}
	t.buf = t.buf[pos:]
	return metas, certs, nil
}

// End is what a post-mortem read of the meta file would report beyond
// the records Poll delivered, once the writer is done: nil when every
// durable byte formed a committed record, the open error when the file
// never appeared, and otherwise the torn frame at the end as a
// *SalvageReport worded as ReadAllMetaCerts words it.
func (t *MetaTail) End() error {
	switch {
	case t.read == 0:
		src, err := t.store.OpenMeta(t.slot)
		if err != nil {
			return err
		}
		return src.Close()
	case len(t.buf) == 0:
		return nil
	case t.version == 0:
		// Fewer bytes than the magic ever landed: they are the whole file.
		_, _, rep := decodeAllMetaCerts(t.buf)
		return rep.Err()
	}
	_, _, _, err := decodeV2Frame(t.buf)
	rep := &SalvageReport{Truncated: true, IntactRecords: t.metas}
	rep.add(SalvageEntry{Block: t.metas, Offset: uint64(t.read) - uint64(len(t.buf)),
		Cause: fmt.Sprintf("%v (%d intact record(s) before it)", err, t.metas)})
	return rep
}

// skipConsumed advances a freshly opened reader past the bytes a previous
// poll already consumed, seeking when the source allows it.
func skipConsumed(src io.Reader, n int64) error {
	if n == 0 {
		return nil
	}
	if s, ok := src.(io.Seeker); ok {
		_, err := s.Seek(n, io.SeekStart)
		return err
	}
	_, err := io.CopyN(io.Discard, src, n)
	if errors.Is(err, io.EOF) {
		// The file shrank below what we already consumed: it was replaced
		// or truncated under us, which tailing cannot survive.
		return errors.New("file shrank below the consumed prefix")
	}
	return err
}

// LogTail follows a growing log file, tracking the committed-frame
// frontier without decompressing payloads. Each Poll scans the frames that
// became durable since the last one and reports the file offset and
// logical (uncompressed) size covered by whole committed frames — the
// prefix a reader can consume without ever hitting a torn tail.
type LogTail struct {
	store   Store
	slot    int
	r       *LogReader
	retries uint64
}

// NewLogTail returns a tail over the log file of a thread slot.
func NewLogTail(store Store, slot int) *LogTail {
	return &LogTail{store: store, slot: slot}
}

// Retries returns how many polls ended on a torn tail and will re-read
// the frame once more bytes land — the stream.tail_retries signal.
func (t *LogTail) Retries() uint64 { return t.retries }

// Close releases the tail's reader, if any.
func (t *LogTail) Close() error {
	if t.r == nil {
		return nil
	}
	r := t.r
	t.r = nil
	return r.Close()
}

// skipAllBlocks makes NextFrom discard every payload: the tail only needs
// the framing walk to find the committed frontier.
func skipAllBlocks(start, rawLen uint64) bool { return true }

// Poll advances over newly committed frames and returns the committed
// frontier: the file offset ending the last whole frame and the logical
// bytes those frames decode to. An error means real corruption; a torn
// tail just stops the scan at the boundary and retries next poll.
func (t *LogTail) Poll() (fileOff, logical uint64, err error) {
	if t.r == nil {
		src, err := t.store.OpenLog(t.slot)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return 0, 0, nil
			}
			return 0, 0, fmt.Errorf("trace: tail log slot %d: %w", t.slot, err)
		}
		t.r = NewLogReader(src)
		t.r.SetTail(true)
	} else {
		// A seekable source (a DirStore *os.File) observes growth in
		// place: rewinding to the torn boundary is enough. Snapshot
		// sources need a fresh reader over the grown file.
		var src io.ReadCloser
		if _, seekable := t.r.c.(io.Seeker); !seekable {
			src, err = t.store.OpenLog(t.slot)
			if err != nil {
				return 0, 0, fmt.Errorf("trace: tail log slot %d: %w", t.slot, err)
			}
		}
		if src != nil || t.r.Torn() {
			if err := t.r.Resume(src); err != nil {
				return 0, 0, fmt.Errorf("trace: tail log slot %d: %w", t.slot, err)
			}
		}
	}
	for {
		_, _, err := t.r.NextFrom(skipAllBlocks)
		if err == nil {
			continue
		}
		if errors.Is(err, ErrTornTail) {
			t.retries++
			break
		}
		if errors.Is(err, io.EOF) {
			break
		}
		return t.r.Offset(), t.r.RawBytes(), err
	}
	return t.r.Offset(), t.r.RawBytes(), nil
}
