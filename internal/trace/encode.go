package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Event encoding
//
// Access (KindAccess):
//
//	tag byte: 1 w a sss mm
//	  bit 7    = 1 (access marker)
//	  bit 6    = write
//	  bit 5    = atomic
//	  bits 2-4 = log2(size)        (sizes 1..128 bytes)
//	  bits 0-1 = reserved (0)
//	zigzag-varint delta of Addr from the previous access address
//	uvarint PC id
//
// Mutex events:
//
//	tag byte 0x01 (acquire) or 0x02 (release), then uvarint mutex id.
//
// Address deltas exploit spatial locality of array sweeps: consecutive
// strided accesses encode in 2–4 bytes. The previous-address register
// resets to zero at the start of every encoder (and therefore every
// interval fragment begins a fresh delta chain only if the encoder is
// reset; the collector keeps one encoder per flush buffer and the decoder
// mirrors its state, so fragment boundaries inside a buffer are safe).

const (
	tagAcquire = 0x01
	tagRelease = 0x02
	tagAccess  = 0x80
)

// Encoder appends encoded events to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf      []byte
	prevAddr uint64
	events   int
}

// Reset clears the buffer and the delta state, keeping capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.prevAddr = 0
	e.events = 0
}

// Swap installs buf, emptied, as the encoder's buffer, resets the delta
// state, and returns the previous buffer with its encoded bytes. A
// double-buffering producer hands the returned buffer off without a copy.
func (e *Encoder) Swap(buf []byte) []byte {
	full := e.buf
	e.buf = buf[:0]
	e.prevAddr = 0
	e.events = 0
	return full
}

// Bytes returns the encoded buffer. The slice is invalidated by further
// writes or Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Events returns the number of events encoded since the last Reset.
func (e *Encoder) Events() int { return e.events }

// Access encodes a memory access event. Size must be a power of two in
// 1..128.
func (e *Encoder) Access(addr uint64, size uint8, write, atomic bool, pc uint64) {
	tag := byte(tagAccess)
	if write {
		tag |= 1 << 6
	}
	if atomic {
		tag |= 1 << 5
	}
	lg := uint8(bits.TrailingZeros8(size))
	if size == 0 || size != 1<<lg || lg > 7 {
		panic(fmt.Sprintf("trace: invalid access size %d", size))
	}
	tag |= lg << 2
	e.buf = append(e.buf, tag)
	delta := int64(addr - e.prevAddr)
	e.buf = binary.AppendUvarint(e.buf, zigzag(delta))
	e.prevAddr = addr
	e.buf = binary.AppendUvarint(e.buf, pc)
	e.events++
}

// Acquire encodes a mutex acquisition.
func (e *Encoder) Acquire(mutex uint64) {
	e.buf = append(e.buf, tagAcquire)
	e.buf = binary.AppendUvarint(e.buf, mutex)
	e.events++
}

// Release encodes a mutex release.
func (e *Encoder) Release(mutex uint64) {
	e.buf = append(e.buf, tagRelease)
	e.buf = binary.AppendUvarint(e.buf, mutex)
	e.events++
}

// Decoder decodes events from a byte stream produced by Encoder. Its delta
// state must track the encoder's: decode exactly the bytes one encoder
// produced, in order, from a fresh Decoder per flush buffer.
type Decoder struct {
	buf      []byte
	pos      int
	prevAddr uint64
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset repoints the decoder at buf and clears the delta state.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.prevAddr = 0
}

// Pos returns the byte position of the next event.
func (d *Decoder) Pos() int { return d.pos }

// More reports whether events remain.
func (d *Decoder) More() bool { return d.pos < len(d.buf) }

// Next decodes the next event into ev. It returns an error on a malformed
// or truncated stream.
func (d *Decoder) Next(ev *Event) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("trace: decode past end of buffer")
	}
	tag := d.buf[d.pos]
	d.pos++
	switch {
	case tag&tagAccess != 0:
		ev.Kind = KindAccess
		ev.Write = tag&(1<<6) != 0
		ev.Atomic = tag&(1<<5) != 0
		ev.Size = 1 << ((tag >> 2) & 0x7)
		z, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad address delta at %d", d.pos)
		}
		d.pos += n
		d.prevAddr += uint64(unzigzag(z))
		ev.Addr = d.prevAddr
		pc, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad pc at %d", d.pos)
		}
		d.pos += n
		ev.PC = pc
		return nil
	case tag == tagAcquire, tag == tagRelease:
		if tag == tagAcquire {
			ev.Kind = KindMutexAcquire
		} else {
			ev.Kind = KindMutexRelease
		}
		m, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad mutex id at %d", d.pos)
		}
		d.pos += n
		ev.Mutex = m
		return nil
	default:
		return fmt.Errorf("trace: unknown event tag %#x at %d", tag, d.pos-1)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Meta encoding: one uvarint per field, in struct order. PPID encodes
// NoParent as 0 and otherwise pid+1, keeping root records to one byte.

// AppendMeta appends the binary encoding of m to dst.
func AppendMeta(dst []byte, m *Meta) []byte {
	dst = binary.AppendUvarint(dst, m.PID)
	pp := uint64(0)
	if m.PPID != NoParent {
		pp = m.PPID + 1
	}
	dst = binary.AppendUvarint(dst, pp)
	dst = binary.AppendUvarint(dst, m.BID)
	dst = binary.AppendUvarint(dst, m.Offset)
	dst = binary.AppendUvarint(dst, m.Span)
	dst = binary.AppendUvarint(dst, uint64(m.Level))
	dst = binary.AppendUvarint(dst, m.DataBegin)
	dst = binary.AppendUvarint(dst, m.DataSize)
	dst = binary.AppendUvarint(dst, m.ParentTID)
	dst = binary.AppendUvarint(dst, m.ParentBID)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(m.Held))
	dst = binary.AppendUvarint(dst, m.Cut)
	dst = binary.AppendUvarint(dst, m.ParentCut)
	flags := uint64(0)
	if m.Async {
		flags |= 1
	}
	dst = binary.AppendUvarint(dst, flags)
	return dst
}

// DecodeMeta decodes one meta record from src, returning the bytes
// consumed.
func DecodeMeta(src []byte, m *Meta) (int, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated meta record at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	var err error
	read := func(dst *uint64) {
		if err != nil {
			return
		}
		*dst, err = next()
	}
	read(&m.PID)
	var pp uint64
	read(&pp)
	read(&m.BID)
	read(&m.Offset)
	read(&m.Span)
	var level uint64
	read(&level)
	read(&m.DataBegin)
	read(&m.DataSize)
	read(&m.ParentTID)
	read(&m.ParentBID)
	read(&m.Seq)
	var held uint64
	read(&held)
	m.Held = MutexSet(held)
	read(&m.Cut)
	read(&m.ParentCut)
	var flags uint64
	read(&flags)
	m.Async = flags&1 != 0
	if err != nil {
		return 0, err
	}
	if pp == 0 {
		m.PPID = NoParent
	} else {
		m.PPID = pp - 1
	}
	if m.Span == 0 {
		return 0, fmt.Errorf("trace: meta record with zero span")
	}
	m.Level = uint32(level)
	return pos, nil
}
