package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"sword/internal/compress"
)

// fuzzSeedLogs builds valid v1 and v2 logs plus characteristic corruptions
// as the seed corpus: the fuzzer then mutates real framing instead of
// having to discover it.
func fuzzSeedLogs() [][]byte {
	blocks := [][]byte{
		bytes.Repeat([]byte{0x9c, 0x10, 0x01}, 300),
		[]byte("second block"),
	}
	var seeds [][]byte
	for _, version := range []int{FormatV1, FormatV2} {
		for _, codec := range []compress.Codec{compress.Raw{}, compress.LZSS{}, compress.NewFlate()} {
			var sink byteSink
			w := NewLogWriterVersion(&sink, codec, version)
			for _, blk := range blocks {
				w.WriteBlock(blk)
			}
			w.Close()
			data := sink.Bytes()
			seeds = append(seeds, data)
			// Torn tail and a flipped payload byte.
			if len(data) > 10 {
				seeds = append(seeds, data[:len(data)-7])
				bad := bytes.Clone(data)
				bad[len(bad)/2] ^= 0xFF
				seeds = append(seeds, bad)
			}
		}
	}
	// Framing that declares an implausible block.
	seeds = append(seeds, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x05, 0x00, 1, 2, 3, 4, 5})
	return seeds
}

// FuzzLogReader feeds arbitrary bytes to the log reader, once stopping at
// the first error and once reading on past damage. The contract under
// fuzzing: no panic, no unbounded allocation (the MaxBlockBytes cap), and
// the only error is damage — a SalvageReport the reader also keeps.
func FuzzLogReader(f *testing.F) {
	for _, seed := range fuzzSeedLogs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, readOn := range []bool{false, true} {
			r := NewLogReader(io.NopCloser(bytes.NewReader(data)))
			var logical uint64
			damage := 0
			for {
				start, raw, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					if !errors.Is(err, ErrTraceDamaged) {
						t.Fatalf("reader returned a non-damage error: %v", err)
					}
					damage++
					if readOn {
						continue
					}
					break
				}
				if uint64(len(raw)) > MaxBlockBytes {
					t.Fatalf("block of %d bytes exceeds cap", len(raw))
				}
				if start < logical {
					t.Fatalf("logical offsets went backwards: %d after %d", start, logical)
				}
				logical = start + uint64(len(raw))
			}
			if r.RawBytes() < logical {
				t.Fatalf("RawBytes %d below delivered %d", r.RawBytes(), logical)
			}
			if readOn && (damage == 0) != r.Salvage().Clean() {
				t.Fatalf("%d damage errors but report clean=%v", damage, r.Salvage().Clean())
			}
		}
	})
}

// FuzzDecodeMeta feeds arbitrary bytes to the meta reader: no panic, the
// only error is damage, and the intact prefix it returns beside the damage
// must hold valid records.
func FuzzDecodeMeta(f *testing.F) {
	metas := []Meta{
		{PID: 0, PPID: NoParent, BID: 0, Span: 4, Level: 1, DataSize: 100},
		{PID: 1, PPID: 0, BID: 2, Offset: 6, Span: 4, Level: 2, DataBegin: 40, DataSize: 10, ParentTID: 1, ParentBID: 1, Seq: 3, Held: 2, Cut: 1, ParentCut: 2, Async: true},
	}
	for _, version := range []int{FormatV1, FormatV2} {
		var sink byteSink
		w := NewMetaWriterVersion(&sink, version)
		for i := range metas {
			w.Append(&metas[i])
		}
		w.Close()
		f.Add(sink.Bytes())
		f.Add(sink.Bytes()[:sink.Len()-3])
	}
	f.Add([]byte(metaMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadAllMeta(io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			var rep *SalvageReport
			if !errors.As(err, &rep) || rep.Clean() {
				t.Fatalf("meta read errored without a damage report: %v", err)
			}
			if rep.IntactRecords != len(got) {
				t.Fatalf("IntactRecords %d != %d records", rep.IntactRecords, len(got))
			}
		}
		for i := range got {
			if got[i].Span == 0 {
				t.Fatalf("record %d has zero span", i)
			}
		}
	})
}
