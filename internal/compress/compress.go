// Package compress provides the pluggable block codecs SWORD uses when
// flushing trace buffers to log files. The paper compared LZO, Snappy and
// LZ4 and found similar performance, picking LZO for ease of integration;
// this reproduction supplies, in the same spirit, a from-scratch
// byte-oriented LZ77 codec in the LZ4 block format ("lzss"), a
// compress/flate wrapper ("flate"), and an identity codec ("raw"). The
// codec comparison ablation bench mirrors the paper's codec bake-off.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec compresses and decompresses whole blocks. Implementations must be
// safe for concurrent use: the collector flushes per-thread buffers from
// independent goroutines through a single shared codec.
type Codec interface {
	// Name returns the codec's registry name.
	Name() string
	// ID returns the codec's stable one-byte identifier stored in block
	// headers.
	ID() byte
	// Compress appends the compressed form of src to dst and returns the
	// extended slice.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst, which must
	// grow by exactly rawLen bytes, and returns the extended slice.
	Decompress(dst, src []byte, rawLen int) ([]byte, error)
}

// Codec identifiers stored in block headers.
const (
	IDRaw  byte = 0
	IDLZSS byte = 1
	IDZip  byte = 2
)

// ByID returns the codec with the given block-header identifier.
func ByID(id byte) (Codec, error) {
	switch id {
	case IDRaw:
		return Raw{}, nil
	case IDLZSS:
		return LZSS{}, nil
	case IDZip:
		return NewFlate(), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec id %d", id)
	}
}

// ByName returns the codec registered under name ("raw", "lzss", "flate").
func ByName(name string) (Codec, error) {
	switch name {
	case "raw":
		return Raw{}, nil
	case "lzss":
		return LZSS{}, nil
	case "flate":
		return NewFlate(), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// Raw is the identity codec.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// ID implements Codec.
func (Raw) ID() byte { return IDRaw }

// Compress implements Codec.
func (Raw) Compress(dst, src []byte) []byte { return append(dst, src...) }

// Decompress implements Codec.
func (Raw) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if len(src) != rawLen {
		return nil, fmt.Errorf("compress: raw block length %d, want %d", len(src), rawLen)
	}
	return append(dst, src...), nil
}

// Flate wraps compress/flate at a fast level. Writers and staging buffers
// are pooled so the flush path stays allocation-free at steady state;
// readers are created per call.
type Flate struct {
	writers *sync.Pool
	bufs    *sync.Pool
}

// NewFlate returns a flate codec at compression level 1 (fastest), the
// right trade-off for a hot flush path.
func NewFlate() *Flate {
	return &Flate{
		writers: &sync.Pool{New: func() any {
			w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
			if err != nil {
				panic(err) // only fails for invalid levels
			}
			return w
		}},
		bufs: &sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

// Name implements Codec.
func (*Flate) Name() string { return "flate" }

// ID implements Codec.
func (*Flate) ID() byte { return IDZip }

// Compress implements Codec. The flate writer cannot emit straight into
// dst (it needs an io.Writer and flushes in chunks), so the output is
// staged through a pooled buffer whose capacity survives across calls —
// no per-call allocation once the pools are warm.
func (f *Flate) Compress(dst, src []byte) []byte {
	buf := f.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	w := f.writers.Get().(*flate.Writer)
	w.Reset(buf)
	if _, err := w.Write(src); err != nil {
		panic(fmt.Sprintf("compress: flate write to buffer failed: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("compress: flate close failed: %v", err))
	}
	f.writers.Put(w)
	dst = append(dst, buf.Bytes()...)
	f.bufs.Put(buf)
	return dst
}

// Decompress implements Codec.
func (f *Flate) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	start := len(dst)
	dst = append(dst, make([]byte, rawLen)...)
	if _, err := io.ReadFull(r, dst[start:]); err != nil {
		return nil, fmt.Errorf("compress: flate decompress: %w", err)
	}
	// Like the other codecs, reject a stream longer than rawLen: a short
	// declared length must not decode as a truncated block.
	var extra [1]byte
	if n, _ := r.Read(extra[:]); n > 0 {
		return nil, fmt.Errorf("compress: flate stream longer than declared length %d", rawLen)
	}
	return dst, nil
}
