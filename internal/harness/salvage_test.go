package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sword/internal/core"
	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// raceClass is a race's identity without its witness address: the two
// access sites and their operations, in a canonical side order.
type raceClass struct {
	a, b siteOp
}

type siteOp struct {
	pc            uint64
	write, atomic bool
}

func (s siteOp) less(o siteOp) bool {
	if s.pc != o.pc {
		return s.pc < o.pc
	}
	if s.write != o.write {
		return !s.write
	}
	return !s.atomic && o.atomic
}

func classOf(r report.Race) raceClass {
	a := siteOp{r.First.PC, r.First.Write, r.First.Atomic}
	b := siteOp{r.Second.PC, r.Second.Write, r.Second.Atomic}
	if b.less(a) {
		a, b = b, a
	}
	return raceClass{a, b}
}

func raceClasses(rep *report.Report) map[raceClass]bool {
	out := make(map[raceClass]bool)
	for _, r := range rep.Races() {
		out[classOf(r)] = true
	}
	return out
}

// damageSpec is one injected fault: a truncation point or a bit flip in
// one slot's log or meta file.
type damageSpec struct {
	file string // "log:<slot>" or "meta:<slot>"
	cut  int    // keep this many bytes; -1 = no truncation
	flip int    // byte to flip; -1 = no flip
	bit  uint8
}

func (d damageSpec) String() string {
	if d.cut >= 0 {
		return fmt.Sprintf("%s cut at %d", d.file, d.cut)
	}
	return fmt.Sprintf("%s bit %d of byte %d flipped", d.file, d.bit, d.flip)
}

func (d damageSpec) apply(name string, data []byte) []byte {
	if name != d.file {
		return data
	}
	out := bytes.Clone(data)
	if d.cut >= 0 && d.cut < len(out) {
		out = out[:d.cut]
	}
	if d.flip >= 0 && d.flip < len(out) {
		out[d.flip] ^= 1 << d.bit
	}
	return out
}

// randomDamage picks a file of the trace and a truncation point or bit
// flip inside it.
func randomDamage(r *rand.Rand, store *trace.MemStore) (damageSpec, bool) {
	slots, err := store.Slots()
	if err != nil || len(slots) == 0 {
		return damageSpec{}, false
	}
	slot := slots[r.Intn(len(slots))]
	kind := "log"
	open := store.OpenLog
	if r.Intn(2) == 0 {
		kind, open = "meta", store.OpenMeta
	}
	src, err := open(slot)
	if err != nil {
		return damageSpec{}, false
	}
	var buf bytes.Buffer
	buf.ReadFrom(src)
	src.Close()
	n := buf.Len()
	if n == 0 {
		return damageSpec{}, false
	}
	d := damageSpec{file: fmt.Sprintf("%s:%d", kind, slot), cut: -1, flip: -1}
	if r.Intn(2) == 0 {
		d.cut = r.Intn(n)
	} else {
		d.flip, d.bit = r.Intn(n), uint8(r.Intn(8))
	}
	return d, true
}

// TestSalvageNeverInventsRace is the soundness property of analyzing a
// damaged trace: whatever the damage, every race class reported must also
// be a race class of the intact trace. Damage may hide races (their data
// is gone) but must never fabricate one — a corrupt block decoded as if it
// were intact, or data attributed to the wrong interval, would. Random
// programs from the differential generator are collected with small
// buffers (many blocks per log), then analyzed again with one truncation
// or bit flip in one log or meta file, single-pass and batched.
func TestSalvageNeverInventsRace(t *testing.T) {
	const seeds = 200
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			store := trace.NewMemStore()
			col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 16})
			randomProgram(seed, omp.New(omp.WithTool(col)), memsim.NewSpace(nil))
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			intact, err := core.New(store, core.Config{}).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want := raceClasses(intact)
			r := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 4; trial++ {
				d, ok := randomDamage(r, store)
				if !ok {
					continue
				}
				fs := trace.NewFaultStore(store)
				fs.SetMutateRead(d.apply)
				cfg := core.Config{}
				if trial%2 == 1 {
					cfg.SubtreeBatch = 1
				}
				rep, err := core.New(fs, cfg).Analyze()
				if rep == nil {
					t.Fatalf("%s: no report: %v", d, err)
				}
				for c := range raceClasses(rep) {
					if !want[c] {
						t.Errorf("%s (batch %d): invented race %+v\ndamaged:\n%sintact:\n%s",
							d, cfg.SubtreeBatch, c, rep, intact)
					}
				}
			}
		})
	}
}
