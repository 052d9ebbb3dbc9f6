package trace

import (
	"errors"
	"fmt"
	"strings"
)

// ErrTraceDamaged is what every report of trace damage matches under
// errors.Is. The damage itself travels as a *SalvageReport, which is the
// error value: readers return it beside the data they recovered, and
// errors.As recovers the report from any error that wraps it.
var ErrTraceDamaged = errors.New("trace damaged")

// SalvageReport is the structured damage record a reader produces
// alongside the data it recovered. Production runs crash, fill disks and
// get OOM-killed mid-flush; post-mortem analysis only works if the reader
// can hand back the intact prefix of a damaged file and say exactly what
// was lost instead of aborting on the first bad byte. A nil report, or one
// for which Clean reports true, means the file decoded fully; a damaged
// report is also an error (see Err), so one return path carries both the
// partial data and the loud failure.
type SalvageReport struct {
	// Entries describe each piece of damage in file order.
	Entries []SalvageEntry
	// CorruptBlocks counts log blocks whose payload failed its checksum
	// but whose framing was intact, so reading continued with the next
	// block.
	CorruptBlocks int
	// Truncated reports that the stream ended before a clean block or
	// record boundary — a torn tail from a crash mid-append, or framing
	// damage the reader cannot resynchronize past.
	Truncated bool
	// SalvagedBytes is the volume recovered: logical (decompressed) bytes
	// of good log blocks, or encoded bytes of intact meta records.
	SalvagedBytes uint64
	// LostBytes is the declared logical span of corrupt log blocks — data
	// that was written but cannot be decoded. Truncated tails are not
	// included (their extent is unknown to the reader; the analyzer bounds
	// it against the meta-data instead).
	LostBytes uint64
	// IntactRecords counts the meta records ReadAllMeta recovered before
	// the damage.
	IntactRecords int
}

// SalvageEntry is one piece of damage: where it sits in the file, which
// logical span it takes out (logs only), and why the bytes were rejected.
type SalvageEntry struct {
	// File names the damaged file ("log 3", "meta 3", "aux pctable") in a
	// report that merges several; empty from single-file readers.
	File string
	// Block is the block (log) or record (meta) index the damage was
	// detected at, or -1 for damage without a frame position (an aux
	// file, accesses no interval fragment owns).
	Block int
	// Offset is the byte offset in the file where the damaged region
	// starts (the block or record header).
	Offset uint64
	// LogicalStart and LogicalEnd delimit the lost logical byte span for
	// corrupt log blocks; both zero for meta damage and truncated tails.
	LogicalStart, LogicalEnd uint64
	// Cause says what failed, e.g. "payload crc mismatch" or
	// "truncated block payload".
	Cause string
}

func (e SalvageEntry) String() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		b.WriteString(": ")
	}
	if e.Block >= 0 {
		fmt.Fprintf(&b, "block %d at offset %d: ", e.Block, e.Offset)
	}
	b.WriteString(e.Cause)
	if e.LogicalEnd > e.LogicalStart {
		fmt.Fprintf(&b, " (logical [%d,%d) lost)", e.LogicalStart, e.LogicalEnd)
	}
	return b.String()
}

// Clean reports whether the reader found no damage at all.
func (r *SalvageReport) Clean() bool {
	return r == nil || (len(r.Entries) == 0 && !r.Truncated)
}

// Err returns r as an error, or nil when r is clean. Use it instead of
// converting r directly: a clean non-nil report is not a failure.
func (r *SalvageReport) Err() error {
	if r.Clean() {
		return nil
	}
	return r
}

// Error makes a damage report an error value matching ErrTraceDamaged.
// It names the first few entries; String lists them all.
func (r *SalvageReport) Error() string {
	const shown = 4
	if len(r.Entries) <= shown {
		return "trace damaged: " + r.String()
	}
	head := &SalvageReport{Entries: r.Entries[:shown]}
	return fmt.Sprintf("trace damaged: %s; and %d more", head, len(r.Entries)-shown)
}

// Is reports whether target is ErrTraceDamaged, so errors.Is finds the
// damage through any wrapping.
func (r *SalvageReport) Is(target error) bool { return target == ErrTraceDamaged }

// String summarizes the damage on one line, empty when clean.
func (r *SalvageReport) String() string {
	if r.Clean() {
		return ""
	}
	parts := make([]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, "; ")
}

func (r *SalvageReport) add(e SalvageEntry) {
	r.Entries = append(r.Entries, e)
}
