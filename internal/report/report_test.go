package report

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestAddDeduplicatesUnorderedPairs(t *testing.T) {
	r := New()
	a := Side{PC: 1, Source: "a.go:1", Write: true}
	b := Side{PC: 2, Source: "b.go:2"}
	r.Add(Race{First: a, Second: b, Addr: 0x10})
	r.Add(Race{First: b, Second: a, Addr: 0x20}) // swapped sides: same race
	r.Add(Race{First: a, Second: b, Addr: 0x30})
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	race := r.Races()[0]
	if race.Count != 3 {
		t.Fatalf("Count = %d, want 3", race.Count)
	}
	if race.Addr != 0x10 {
		t.Fatalf("witness = %#x, want the first", race.Addr)
	}
}

func TestDistinctPairsKept(t *testing.T) {
	r := New()
	w := Side{PC: 1, Source: "w", Write: true}
	r.Add(Race{First: w, Second: Side{PC: 2, Source: "r1"}})
	r.Add(Race{First: w, Second: Side{PC: 3, Source: "r2"}})
	// Same pcs but different direction combination is a different record.
	r.Add(Race{First: Side{PC: 1, Source: "w"}, Second: Side{PC: 2, Source: "r1", Write: true}})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3:\n%s", r.Len(), r.String())
	}
}

func TestRacesSorted(t *testing.T) {
	r := New()
	r.Add(Race{First: Side{PC: 5, Source: "z.go:9", Write: true}, Second: Side{PC: 6, Source: "z.go:10"}})
	r.Add(Race{First: Side{PC: 1, Source: "a.go:1", Write: true}, Second: Side{PC: 2, Source: "a.go:2"}})
	races := r.Races()
	if races[0].First.Source > races[1].First.Source {
		t.Fatalf("not sorted: %v", races)
	}
}

// TestRacesTotalOrder: races that tie on both source names — different
// ops on one site pair, several pcs behind one name — still render in one
// order, whatever order they were added in.
func TestRacesTotalOrder(t *testing.T) {
	races := []Race{
		{First: Side{PC: 1, Source: "s.go:1", Write: true}, Second: Side{PC: 2, Source: "s.go:2"}, Addr: 0x10},
		{First: Side{PC: 1, Source: "s.go:1", Write: true}, Second: Side{PC: 2, Source: "s.go:2", Write: true}, Addr: 0x20},
		{First: Side{PC: 1, Source: "s.go:1"}, Second: Side{PC: 2, Source: "s.go:2", Atomic: true, Write: true}, Addr: 0x30},
		{First: Side{PC: 3, Source: "s.go:1", Write: true}, Second: Side{PC: 2, Source: "s.go:2"}, Addr: 0x40},
		{First: Side{PC: 4, Source: "s.go:1", Write: true}, Second: Side{PC: 5, Source: "s.go:2"}, Addr: 0x50},
		{First: Side{PC: 6, Source: "pc(6)", Write: true}, Second: Side{PC: 7, Source: "pc(6)"}, Addr: 0x60},
	}
	render := func(order []int) (string, string) {
		r := New()
		for _, i := range order {
			r.Add(races[i])
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return r.String(), string(data)
	}
	wantText, wantJSON := render([]int{0, 1, 2, 3, 4, 5})
	for _, order := range [][]int{{5, 4, 3, 2, 1, 0}, {2, 5, 0, 3, 1, 4}, {3, 1, 4, 0, 5, 2}} {
		for trial := 0; trial < 10; trial++ {
			text, js := render(order)
			if text != wantText || js != wantJSON {
				t.Fatalf("insertion order %v changed the rendering:\n%s\nwant:\n%s", order, text, wantText)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	r := New()
	r.Add(Race{
		First:  Side{PC: 1, Source: "md.go:87", Write: true},
		Second: Side{PC: 2, Source: "md.go:91", Atomic: true},
		Addr:   0xbeef,
	})
	s := r.String()
	if !strings.Contains(s, "write md.go:87") || !strings.Contains(s, "atomic-read md.go:91") {
		t.Fatalf("rendering: %s", s)
	}
	if !strings.Contains(s, "0xbeef") || !strings.Contains(s, "1 race(s)") {
		t.Fatalf("rendering: %s", s)
	}
}

func TestSideOps(t *testing.T) {
	for side, want := range map[Side]string{
		{Write: true}:               "write",
		{}:                          "read",
		{Atomic: true}:              "atomic-read",
		{Write: true, Atomic: true}: "atomic-write",
	} {
		if got := side.op(); got != want {
			t.Errorf("op(%+v) = %q, want %q", side, got, want)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(Race{
					First:  Side{PC: uint64(g), Source: "s", Write: true},
					Second: Side{PC: uint64(i % 4), Source: "t"},
				})
			}
		}()
	}
	wg.Wait()
	if r.Len() == 0 || r.Len() > 8*4 {
		t.Fatalf("Len = %d", r.Len())
	}
	total := 0
	for _, race := range r.Races() {
		total += race.Count
	}
	if total != 8*200 {
		t.Fatalf("total count %d, want 1600", total)
	}
}

func TestMarshalJSON(t *testing.T) {
	r := New()
	r.Add(Race{
		First:  Side{PC: 1, Source: "x.go:1", Write: true},
		Second: Side{PC: 2, Source: "x.go:2"},
		Addr:   0x1000,
	})
	r.Stats.Intervals = 4
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Races []struct {
			First  struct{ Source, Op string }
			Second struct{ Source, Op string }
			Addr   string
		}
		Stats struct{ Intervals int }
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Races) != 1 || decoded.Races[0].First.Op != "write" ||
		decoded.Races[0].Addr != "0x1000" || decoded.Stats.Intervals != 4 {
		t.Fatalf("json: %s", data)
	}
}

func TestEmptyReport(t *testing.T) {
	r := New()
	if r.Len() != 0 || len(r.Races()) != 0 {
		t.Fatal("empty report not empty")
	}
	if !strings.Contains(r.String(), "0 race(s)") {
		t.Fatalf("empty rendering: %s", r.String())
	}
	data, err := json.Marshal(r)
	if err != nil || !strings.Contains(string(data), `"races":[]`) {
		t.Fatalf("empty json: %s, %v", data, err)
	}
}
