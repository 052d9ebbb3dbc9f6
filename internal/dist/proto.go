package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"

	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/obs"
	"sword/internal/report"
	"sword/internal/trace"
)

// Wire protocol: every message is one frame,
//
//	[4 bytes big-endian payload length][1 byte type][payload]
//
// over a plain TCP stream. The length covers the type byte plus the
// payload, so a reader can skip unknown frames. Frames are capped at
// maxFrame: a length beyond it means a corrupt or hostile stream and
// kills the connection rather than an allocation.
//
// The handshake frames (hello, welcome) always carry a bare gob payload.
// The hello offers the worker's compression codecs and the welcome picks
// one; when a codec is negotiated, every later frame's payload is an
// envelope
//
//	[1 byte codec id][4 bytes big-endian raw length][body]
//
// where body is the gob payload compressed with the named codec — or the
// raw gob bytes under codec id 0 when compression did not shrink that
// particular frame. A peer that offers nothing (an older build; gob
// ignores the unknown handshake fields) negotiates no codec and speaks
// bare frames for the whole connection, so mixed versions interoperate.
// The layout is documented for operators in docs/FORMAT.md ("Distributed
// analysis").
const (
	protoVersion = 1
	maxFrame     = 64 << 20 // 64 MiB: far above any real batch or result
	headerLen    = 5
	envLen       = 5 // codec id + raw length, on negotiated connections
)

// Frame types.
const (
	msgHello     byte = iota + 1 // worker → coordinator: version, name, codecs
	msgWelcome                   // coordinator → worker: version accepted, codec picked
	msgBatch                     // coordinator → worker: units to analyze
	msgResult                    // worker → coordinator: races + stats delta
	msgHeartbeat                 // worker → coordinator: alive mid-batch
	msgShutdown                  // coordinator → worker: no more work
)

// typeName renders a frame type for error messages.
func typeName(t byte) string {
	switch t {
	case msgHello:
		return "hello"
	case msgWelcome:
		return "welcome"
	case msgBatch:
		return "batch"
	case msgResult:
		return "result"
	case msgHeartbeat:
		return "heartbeat"
	case msgShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("type-%d", t)
}

// Hello is the worker's opening frame. Codecs lists the frame compressors
// the worker offers in preference order; absent (an older worker) means
// bare frames.
type Hello struct {
	Version int
	Name    string // worker's self-chosen label, for notes and metrics
	Codecs  []string
}

// Welcome acknowledges a compatible worker. Codec names the negotiated
// frame compressor — one of the hello's offers — or is empty for bare
// frames (also what an older coordinator, which never sets the field,
// answers).
type Welcome struct {
	Version int
	Codec   string
}

// Batch hands a worker one slice of the work plan. TimeLimit is the
// coordinator's per-batch deadline; the worker derives a context timeout
// from it so it stops burning cycles on work the coordinator already gave
// up on.
type Batch struct {
	Seq       uint64
	Units     []core.PairUnit
	TimeLimit int64 // nanoseconds; 0 = no limit
}

// Result carries one batch's outcome back: the races found and the
// engine-effort delta for exactly this batch. BusyNs is the worker's wall
// time analyzing the batch (excluding queueing and transport), the input
// to the harness's scale-out projection. A non-empty Err means the worker
// could not analyze the batch (e.g. its structure disagrees with the
// coordinator's plan); the coordinator drops the worker and requeues.
type Result struct {
	Seq    uint64
	Races  []report.Race
	Stats  report.Stats
	BusyNs int64
	Err    string
	// Damage is set when the batch failed on trace damage. Batches cannot
	// quarantine, so the coordinator fails the run with it instead of
	// retrying a batch that would fail the same way.
	Damage *trace.SalvageReport
}

// Heartbeat keeps the coordinator's liveness timer fed during long
// batches. No payload.
type Heartbeat struct{}

// Shutdown tells a worker the plan is drained. No payload.
type Shutdown struct{}

// framer reads and writes frames on one connection. Writes are
// mutex-serialized because a worker's heartbeat ticker writes concurrently
// with its result sender. Byte counters feed dist.bytes_sent/_received.
// setCodec (called once, between the handshake and the first data frame)
// switches both directions to enveloped, compressed payloads.
type framer struct {
	conn  net.Conn
	r     *bufio.Reader
	m     *obs.Metrics
	codec compress.Codec // negotiated; nil = bare frames

	wmu  sync.Mutex
	buf  bytes.Buffer // assembled frame
	gbuf bytes.Buffer // gob staging (compressed connections)
	cbuf []byte       // compression scratch
}

func newFramer(conn net.Conn, m *obs.Metrics) *framer {
	return &framer{conn: conn, r: bufio.NewReader(conn), m: m}
}

// setCodec switches the connection to compressed envelopes. Callers must
// invoke it after the handshake and before any concurrent sends.
func (f *framer) setCodec(c compress.Codec) {
	f.wmu.Lock()
	f.codec = c
	f.wmu.Unlock()
}

// send gob-encodes payload and writes one frame. payload may be nil for
// bodyless types (heartbeat, shutdown).
func (f *framer) send(typ byte, payload any) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.buf.Reset()
	f.buf.Write([]byte{0, 0, 0, 0, typ})
	if f.codec == nil {
		if payload != nil {
			if err := gob.NewEncoder(&f.buf).Encode(payload); err != nil {
				return fmt.Errorf("dist: encode %s: %w", typeName(typ), err)
			}
		}
	} else {
		f.gbuf.Reset()
		if payload != nil {
			if err := gob.NewEncoder(&f.gbuf).Encode(payload); err != nil {
				return fmt.Errorf("dist: encode %s: %w", typeName(typ), err)
			}
		}
		raw := f.gbuf.Bytes()
		var env [envLen]byte
		binary.BigEndian.PutUint32(env[1:], uint32(len(raw)))
		f.cbuf = f.codec.Compress(f.cbuf[:0], raw)
		if len(f.cbuf) < len(raw) {
			env[0] = f.codec.ID()
			f.buf.Write(env[:])
			f.buf.Write(f.cbuf)
			f.m.Counter("dist.frames_compressed").Inc()
			f.m.Counter("dist.frames_compressed_bytes").Add(uint64(len(f.cbuf)))
			f.m.Counter("dist.frames_raw_bytes").Add(uint64(len(raw)))
		} else {
			// Per-frame fallback: this payload (a heartbeat, an
			// already-dense result) would grow; ship it raw inside the
			// envelope.
			env[0] = compress.IDRaw
			f.buf.Write(env[:])
			f.buf.Write(raw)
		}
	}
	b := f.buf.Bytes()
	if len(b) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d-byte cap", typeName(typ), len(b), maxFrame)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := f.conn.Write(b); err != nil {
		return fmt.Errorf("dist: write %s: %w", typeName(typ), err)
	}
	f.m.Counter("dist.bytes_sent").Add(uint64(len(b)))
	return nil
}

// recv reads one frame and returns its type and raw gob payload,
// unwrapping the compression envelope on negotiated connections.
func (f *framer) recv() (byte, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d outside [1, %d]", n, maxFrame)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return 0, nil, fmt.Errorf("dist: short %s frame: %w", typeName(hdr[4]), err)
	}
	f.m.Counter("dist.bytes_received").Add(uint64(headerLen) + uint64(n-1))
	typ := hdr[4]
	if f.codec == nil {
		return typ, payload, nil
	}
	if len(payload) < envLen {
		return 0, nil, fmt.Errorf("dist: %s frame of %d bytes is shorter than the compression envelope", typeName(typ), len(payload))
	}
	rawLen := binary.BigEndian.Uint32(payload[1:envLen])
	if rawLen > maxFrame {
		// A decompression bomb cannot hide behind a small frame.
		return 0, nil, fmt.Errorf("dist: %s frame declares %d raw bytes, beyond the %d-byte cap", typeName(typ), rawLen, maxFrame)
	}
	body := payload[envLen:]
	if payload[0] == compress.IDRaw {
		if int(rawLen) != len(body) {
			return 0, nil, fmt.Errorf("dist: raw-enveloped %s frame length %d, want %d", typeName(typ), len(body), rawLen)
		}
		return typ, body, nil
	}
	cd, err := compress.ByID(payload[0])
	if err != nil {
		return 0, nil, fmt.Errorf("dist: %s frame: %w", typeName(typ), err)
	}
	raw, err := cd.Decompress(make([]byte, 0, rawLen), body, int(rawLen))
	if err != nil {
		return 0, nil, fmt.Errorf("dist: decompress %s frame: %w", typeName(typ), err)
	}
	return typ, raw, nil
}

// recvExpect reads one frame and requires it to be of type want, decoding
// the payload into out (which may be nil for bodyless types).
func (f *framer) recvExpect(want byte, out any) error {
	typ, payload, err := f.recv()
	if err != nil {
		return err
	}
	if typ != want {
		return fmt.Errorf("dist: got %s frame, want %s", typeName(typ), typeName(want))
	}
	return decodePayload(typ, payload, out)
}

func decodePayload(typ byte, payload []byte, out any) error {
	if out == nil {
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("dist: decode %s: %w", typeName(typ), err)
	}
	return nil
}
