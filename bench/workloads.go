package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"sword"
	"sword/internal/workloads"
)

// part is one registered internal/workloads body run inside the session.
type part struct {
	body   string
	size   int // full-size knob
	tiny   int // smoke-test knob
	jitter int // the seed moves size by up to ±jitter percent
}

// workload composes bodies into one program. Names are normative: they
// appear in BENCHMARK.json, expected/<name>.json and the results files.
type workload struct {
	name  string
	why   string
	live  bool // collect with WithLiveFlush, analyze with AnalyzeLive (catch-up)
	parts []part
}

// Sizes are the largest at which one rep (baseline + collect + analyze)
// stays near a second on two cores, so a 10 s window holds ≥ 9 reps; the
// README records what each size does to the layer shares.
var workloadTable = []workload{
	{
		name: "lulesh-regions",
		why:  "many tiny regions: fork/join, rt.Access under a parallel team, async flush and meta volume dominate; compare does nothing",
		parts: []part{
			{body: "lulesh", size: 1000, tiny: 24},
			{body: "hpccg", size: 8192, tiny: 512, jitter: 5},
		},
	},
	{
		name:  "amg-grid",
		why:   "one big region, ten barrier intervals: the bytes path (codec, flush I/O, log read, event decode, run build); structure and compare are idle",
		parts: []part{{body: "amg", size: 64, tiny: 8}},
	},
	{
		name:  "fft-compare",
		why:   "tiny trace, fragmented strided runs: pair sweep, solver, memo and suppression are ~all of the time; the bytes path is idle",
		parts: []part{{body: "c_fft", size: 4096, tiny: 256}},
	},
	{
		name: "lulesh-live",
		why:  "lulesh collected with live flush and analyzed by AnalyzeLive catch-up: per-fragment sync flush, MetaTail/LogTail reads, epoch-by-epoch stepping",
		live: true,
		parts: []part{
			{body: "lulesh", size: 700, tiny: 24},
			{body: "hpccg", size: 8192, tiny: 512, jitter: 5},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything the program receives: a team size, an address-space
// pad and the bodies' size knobs. Nothing else of the seed reaches it.
type inputs struct {
	threads int
	// pad is a float64 array allocated ahead of the bodies; it shifts every
	// simulated address, so logs, deltas and run keys differ between seeds
	// while the amount of work stays put.
	pad   int
	parts []part
	sizes []int
}

// makeInputs derives the inputs from the seed. Size jitter is applied
// only where the knob is fine-grained and the body is a small share of
// the work (hpccg's vector length): lulesh's region count, amg's edge and
// c_fft's n stay fixed so that timings from different seeds measure the
// same amount of work (amg's edge moves cells by 5 % per step, c_fft
// needs a power of two).
func makeInputs(w workload, cfg config) inputs {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(cfg.seed, h.Sum64()))
	in := inputs{threads: cfg.threads, pad: 1 + rng.IntN(1<<16), parts: w.parts}
	for _, p := range w.parts {
		size := p.size
		if cfg.tiny {
			size = p.tiny
		}
		if p.jitter > 0 {
			span := size * p.jitter / 100
			size += rng.IntN(2*span+1) - span
		}
		in.sizes = append(in.sizes, size)
	}
	return in
}

// run executes the program on a runtime and address space — the
// session's for collection, a bare omp runtime for the baseline.
func (in inputs) run(rtm *sword.Runtime, space *sword.Space) error {
	if _, err := space.AllocF64(in.pad); err != nil {
		return err
	}
	for i, p := range in.parts {
		body, err := workloads.Get(p.body)
		if err != nil {
			return err
		}
		body.Run(&workloads.Ctx{RT: rtm, Space: space, Threads: in.threads, Size: in.sizes[i]})
	}
	return nil
}

func (in inputs) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "threads=%d pad=%d", in.threads, in.pad)
	for i, p := range in.parts {
		fmt.Fprintf(&sb, " %s=%d", p.body, in.sizes[i])
	}
	return sb.String()
}

// The known answers are written by hand from the workload sources
// (internal/workloads: the Site names at each documented race), never by
// the analyzer under test.
//
//go:embed expected/*.json
var expectedFS embed.FS

type expectedFile struct {
	Workload string   `json:"workload"`
	Races    []string `json:"races"`
}

func loadExpected(name string) ([]string, error) {
	data, err := expectedFS.ReadFile("expected/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", name, err)
	}
	if f.Workload != name {
		return nil, fmt.Errorf("expected/%s.json is for workload %q", name, f.Workload)
	}
	sort.Strings(f.Races)
	return f.Races, nil
}

// raceKey is the canonical form of one race: its two sides as "<op>
// <site>", sorted, so the unordered site pair compares as a string.
func raceKey(sideA, sideB string) string {
	if sideB < sideA {
		sideA, sideB = sideB, sideA
	}
	return sideA + " <-> " + sideB
}

func raceSet(rep *sword.Report) []string {
	var out []string
	for _, r := range rep.Races() {
		out = append(out, raceKey(r.First.String(), r.Second.String())) // "write hpc/amg.c:..."
	}
	sort.Strings(out)
	return out
}

// checkVerdict compares a race set with the pinned answer.
func checkVerdict(got, want []string) error {
	if slices.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("race set differs from the pinned answer:\n  got  %q\n  want %q", got, want)
}
