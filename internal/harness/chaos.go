package harness

import (
	"fmt"
	"strings"

	"sword"
	"sword/internal/trace"
)

// chaosWorkload collects one racy two-thread run into store via the public
// API and returns the collection error (expected when store is faulty).
// The raw codec and small buffer make sure the trace volume actually
// reaches the store mid-run instead of sitting in writer buffers.
func chaosWorkload(store trace.Store) (collectErr, setupErr error) {
	sess, err := sword.NewSession(
		sword.WithStore(store),
		sword.WithCodec("raw"),
		sword.WithMaxEvents(128),
	)
	if err != nil {
		return nil, err
	}
	pc := sword.Site("chaos:ww")
	arr, _ := sess.Space().AllocF64(64)
	sess.Runtime().Parallel(2, func(th *sword.Thread) {
		for round := 0; round < 400; round++ {
			for i := 0; i < 64; i++ {
				th.StoreF64(arr, i, float64(i), pc)
			}
			th.Barrier()
		}
	})
	return sess.CollectOnly(), nil
}

// ChaosExperiment is the crash-tolerance demonstration: the same racy
// program is collected twice — once onto a healthy store, once onto a
// store that runs out of space mid-run and tears its final write — and
// the damaged trace is analyzed, salvaging what survived. The artifact shows how
// much of the trace survived and that the races of the intact prefix are
// preserved: the end-to-end property the format-v2 integrity framing and
// the quarantining analyzer exist for.
func ChaosExperiment() string {
	cleanStore := trace.NewMemStore()
	if collectErr, err := chaosWorkload(cleanStore); err != nil || collectErr != nil {
		return fmt.Sprintf("chaos: clean collection failed: %v %v\n", err, collectErr)
	}
	cleanRep, _, err := sword.AnalyzeStore(cleanStore)
	if err != nil {
		return fmt.Sprintf("chaos: clean analysis failed: %v\n", err)
	}

	crashedStore := trace.NewMemStore()
	faulty := trace.NewFaultStore(crashedStore)
	faulty.FailWritesAfter(96<<10, nil) // the disk fills a couple of flushes in
	faulty.SetTornWrites(true)
	collectErr, err := chaosWorkload(faulty)
	if err != nil {
		return fmt.Sprintf("chaos: crashed collection setup failed: %v\n", err)
	}

	salvRep, salvStats, err := sword.AnalyzeStore(crashedStore)
	if salvRep == nil {
		return fmt.Sprintf("chaos: salvage analysis failed: %v\n", err)
	}

	var b strings.Builder
	st := salvRep.Stats
	fmt.Fprintf(&b, "clean run:    %d race(s), %d intervals\n", cleanRep.Len(), cleanRep.Stats.Intervals)
	fmt.Fprintf(&b, "crash:        %v\n", collectErr)
	fmt.Fprintf(&b, "salvage:      %d race(s), %d/%d intervals quarantined\n",
		salvRep.Len(), st.IntervalsQuarantined, st.Intervals)
	fmt.Fprintf(&b, "coverage:     %d corrupt block(s), %d truncated slot(s), %d bytes salvaged, %d bytes lost\n",
		st.CorruptBlocks, st.TruncatedSlots, st.SalvagedBytes, st.LostBytes)
	fmt.Fprintf(&b, "partial:      %v (swordoffline would exit %d)\n", salvStats.Partial(), sword.ExitCode(salvRep, err))
	fmt.Fprintf(&b, "races kept:   %v (the intact prefix reports the same race sites as the clean run)\n",
		sameRaceSites(cleanRep, salvRep))
	return b.String()
}

// sameRaceSites compares two reports by their unordered PC site pairs.
func sameRaceSites(a, b *sword.Report) bool {
	sites := func(rep *sword.Report) map[[2]uint64]bool {
		out := make(map[[2]uint64]bool)
		for _, r := range rep.Races() {
			lo, hi := r.First.PC, r.Second.PC
			if lo > hi {
				lo, hi = hi, lo
			}
			out[[2]uint64{lo, hi}] = true
		}
		return out
	}
	sa, sb := sites(a), sites(b)
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}
