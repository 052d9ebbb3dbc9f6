package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"time"

	"sword"
	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/dist"
	"sword/internal/ilp"
	"sword/internal/itree"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/osl"
	"sword/internal/rt"
	"sword/internal/trace"
)

// layers is the traced part of a run: one traced rep, then every layer
// lane over the kept trace directory. All of it runs on one goroutine so
// the tracer's open-span stack names each span's parent.
type layers struct {
	*bench
	res  *runResult
	reps []repSample
	kept string // a trace dir collected in the workload's own mode
	tr   *tracer

	singleS float64 // default-workers post-mortem analysis of kept, seconds
}

func (l *layers) set(name string, v float64) { l.setStat(name, single(v)) }

func (l *layers) setStat(name string, s stat) {
	s.Unit = unitOf(perLayerMetrics, name)
	l.res.PerLayer[name] = s
}

func (l *layers) run() error {
	baseS := sampled(l.res.Samples["omp.baseline_s"])
	collectS := l.res.EndToEnd["collect_s"].Value
	l.setStat("omp.baseline_s", baseS)
	l.set("rt.slowdown_x", collectS/baseS.Value)
	cs := l.reps[0].collected.Collect
	l.set("rt.events", float64(cs.Events))
	l.set("rt.fragments", float64(cs.Fragments))
	l.set("rt.flushes", float64(cs.Flushes))
	l.set("rt.raw_bytes", float64(cs.RawBytes))
	l.set("rt.compressed_bytes", float64(cs.CompressedBytes))
	l.set("rt.flush_errors", float64(cs.FlushErrors))
	l.set("rt.ns_per_event", (collectS-baseS.Value)*1e9/float64(cs.Events))

	// The traced rep is an ordinary rep under spans; its verdict time over
	// the untraced median is what recording spans costs.
	var traced repSample
	if _, err := l.tr.do("rep", func() error {
		var ok bool
		if traced, ok = l.rep(l.tr); !ok {
			return errors.New("traced rep failed")
		}
		return nil
	}); err != nil {
		return err
	}
	l.set("bench.trace_overhead_frac", (traced.collect+traced.analyze).Seconds()/l.res.EndToEnd["verdict_s"].Value-1)

	for _, lane := range []func() error{
		l.coreLanes, l.collectorLanes, l.replay, l.modeLanes, l.microLanes,
	} {
		if err := lane(); err != nil {
			return err
		}
	}
	return nil
}

// coreLanes reads the analyzer's own phase timers from a single-worker
// post-mortem analysis (the paper's OA) and reports what they leave
// unattributed.
func (l *layers) coreLanes() error {
	var st *sword.RunStats
	oa, err := l.tr.do("analyze.oa", func() error {
		rep, s, err := sword.AnalyzeContext(context.Background(), l.kept, sword.WithWorkers(1))
		st = s
		if !l.verdict("analyze.oa", rep, err) {
			return errors.New("single-worker analysis failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	// core.mt_speedup_x and dist.vs_single_x compare against the default
	// post-mortem analysis: the timed reps' median, except on the live
	// workload whose reps analyze with AnalyzeLive.
	l.singleS = l.res.EndToEnd["analyze_s"].Value
	if l.w.live {
		d, err := l.tr.do("analyze.mt", func() error {
			rep, _, err := sword.AnalyzeContext(context.Background(), l.kept)
			if !l.verdict("analyze.mt", rep, err) {
				return errors.New("post-mortem analysis of the live trace failed")
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.singleS = d.Seconds()
	}
	a := st.Analysis
	phases := st.Structure + st.TreeBuild + st.Compare
	l.set("core.oa_s", oa.Seconds())
	l.set("core.structure_s", st.Structure.Seconds())
	l.set("core.trees_s", st.TreeBuild.Seconds())
	l.set("core.compare_s", st.Compare.Seconds())
	l.set("core.unattributed_s", (oa - phases).Seconds())
	l.set("core.unattributed_frac", (oa-phases).Seconds()/oa.Seconds())
	l.set("core.mt_speedup_x", oa.Seconds()/l.singleS)
	l.set("core.intervals", float64(a.Intervals))
	l.set("core.interval_pairs", float64(a.IntervalPairs))
	l.set("core.pairs_prefiltered", float64(a.PairsPrefiltered))
	l.set("core.pairs_retired_static", float64(a.PairsRetiredStatic))
	l.set("core.tree_nodes", float64(a.TreeNodes))
	l.set("core.node_comparisons", float64(a.NodeComparisons))
	l.set("core.solver_calls", float64(a.SolverCalls))
	l.set("core.solver_cache_hits", float64(a.SolverCacheHits))
	l.set("core.sites_suppressed", float64(a.SitesSuppressed))
	l.set("core.bbox_fastpath", float64(st.Metrics.Value("core.bbox_fastpath")))
	l.set("core.solver_hit_frac", ratio(float64(a.SolverCacheHits), float64(a.SolverCacheHits+a.SolverCacheMisses)))
	l.set("core.compare_ns_per_node_cmp", ratio(float64(st.Compare.Nanoseconds()), float64(a.NodeComparisons)))
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// discardStore is a trace.Store that keeps nothing: with it a collection
// pays for instrumentation, buffering and (by codec) compression, but not
// for holding or writing the trace.
type discardStore struct{}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }

func (discardStore) CreateLog(int) (io.WriteCloser, error)    { return discardFile{}, nil }
func (discardStore) CreateMeta(int) (io.WriteCloser, error)   { return discardFile{}, nil }
func (discardStore) CreateAux(string) (io.WriteCloser, error) { return discardFile{}, nil }
func (discardStore) OpenLog(int) (io.ReadCloser, error)       { return nil, errors.New("discard store") }
func (discardStore) OpenMeta(int) (io.ReadCloser, error)      { return nil, errors.New("discard store") }
func (discardStore) OpenAux(string) (io.ReadCloser, error)    { return nil, errors.New("discard store") }
func (discardStore) Slots() ([]int, error)                    { return nil, nil }
func (discardStore) BytesWritten() uint64                     { return 0 }

// collectorLanes splits collection cost by substituting public options:
// store (discarding or directory), codec (raw or lzss), flush mode.
func (l *layers) collectorLanes() error {
	lane := func(name string, live bool, opts ...sword.Option) (float64, error) {
		d, err := l.tr.do(name, func() error {
			_, err := l.collectMode(live, opts...)
			return err
		})
		return d.Seconds(), err
	}
	nullRaw, err := lane("rt.lane.null_raw", false, sword.WithStore(discardStore{}), sword.WithCodec("raw"))
	if err != nil {
		return err
	}
	nullLZ, err := lane("rt.lane.null_lzss", false, sword.WithStore(discardStore{}))
	if err != nil {
		return err
	}
	// The workload's own mode is the timed reps' median; only the other
	// flush mode needs a lane.
	dir, err := l.newDir()
	if err != nil {
		return err
	}
	other, err := lane("rt.lane.dir_flushmode", !l.w.live, sword.WithLogDir(dir))
	if err != nil {
		return err
	}
	async, live := l.res.EndToEnd["collect_s"].Value, other
	if l.w.live {
		async, live = other, async
	}
	l.set("rt.instrument_s", nullRaw)
	l.set("rt.codec_delta_s", nullLZ-nullRaw)
	l.set("rt.io_delta_s", async-nullLZ)
	l.set("rt.liveflush_delta_s", live-async)

	// Collector live heap: the peak during collection over the peak of the
	// same program uninstrumented.
	var basePeak, colPeak uint64
	if _, err := l.tr.do("rt.heap", func() error {
		var err error
		basePeak, _ = heapPeak(func() { err = l.baseline() })
		if err != nil {
			return err
		}
		dir, derr := l.newDir()
		if derr != nil {
			return derr
		}
		colPeak, _ = heapPeak(func() { _, err = l.collect(sword.WithLogDir(dir)) })
		return err
	}); err != nil {
		return err
	}
	l.set("rt.heap_peak_bytes", float64(colPeak)-float64(basePeak))
	return nil
}

// replayChunk is how many events the staged replay decodes before it
// builds them: small enough that the staging buffer stays cache-resident
// (the analyzer itself hands each event straight to the builder), large
// enough that a trace yields thousands of spans, not millions.
const replayChunk = 4096

// posEvent is one decoded event with its logical log position.
type posEvent struct {
	pos uint64
	ev  trace.Event
}

// replay walks the kept trace dir through the layers the analyzer's tree
// phase stacks — meta read, log read (with its decompression re-measured
// on its own), event decode, run build — one stage at a time, so each has
// its own span. Decode and build alternate per block to bound memory.
func (l *layers) replay() error {
	store, err := trace.NewDirStore(l.kept)
	if err != nil {
		return err
	}
	defer store.Close()
	slots, err := store.Slots()
	if err != nil {
		return err
	}
	_, err = l.tr.do("replay", func() error { return l.replayStages(store, slots) })
	return err
}

func (l *layers) replayStages(store *trace.DirStore, slots []int) error {
	metas := make(map[int][]trace.Meta)
	records := 0
	metaRead, err := l.tr.do("trace.meta_read", func() error {
		for _, slot := range slots {
			r, err := store.OpenMeta(slot)
			if err != nil {
				return err
			}
			ms, err := trace.ReadAllMeta(r)
			if err != nil {
				return err
			}
			metas[slot] = ms
			records += len(ms)
		}
		return nil
	})
	if err != nil {
		return err
	}

	type block struct {
		start uint64
		raw   []byte
	}
	blocks := make(map[int][]block)
	var nBlocks int
	var rawBytes, packedBytes uint64
	logRead, err := l.tr.do("trace.log_read", func() error {
		for _, slot := range slots {
			src, err := store.OpenLog(slot)
			if err != nil {
				return err
			}
			lr := trace.NewLogReader(src)
			for {
				start, raw, err := lr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					lr.Close()
					return err
				}
				blocks[slot] = append(blocks[slot], block{start, append([]byte(nil), raw...)})
			}
			nBlocks += int(lr.Blocks())
			rawBytes += lr.RawBytes()
			packedBytes += lr.CompressedBytes()
			if err := lr.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The codec on its own: re-encode and decode every raw block.
	codec, err := compress.ByName("lzss")
	if err != nil {
		return err
	}
	var packed [][]byte
	var repacked uint64
	encode, err := l.tr.do("compress.encode", func() error {
		for _, slot := range slots {
			for _, b := range blocks[slot] {
				p := codec.Compress(nil, b.raw)
				packed = append(packed, p)
				repacked += uint64(len(p))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	decode, err := l.tr.do("compress.decode", func() error {
		var buf []byte
		i := 0
		for _, slot := range slots {
			for _, b := range blocks[slot] {
				out, err := codec.Decompress(buf[:0], packed[i], len(b.raw))
				if err != nil {
					return err
				}
				if len(out) != len(b.raw) {
					return fmt.Errorf("block %d decoded to %d bytes, want %d", i, len(out), len(b.raw))
				}
				buf = out
				i++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	packed = nil
	mb := float64(rawBytes) / 1e6

	// Event decode and run build, alternating per block.
	var events, accesses uint64
	var runs, preMerge int
	var decodeT, buildT time.Duration
	var labels []osl.Label
	buf := make([]posEvent, replayChunk)
	for _, slot := range slots {
		frags := append([]trace.Meta(nil), metas[slot]...)
		sort.Slice(frags, func(i, j int) bool { return frags[i].DataBegin < frags[j].DataBegin })
		for _, m := range frags {
			if m.Level == 1 {
				labels = append(labels, osl.Label{{Offset: m.Seq, Span: 1}, {Offset: m.Offset, Span: m.Span}})
			}
		}
		var (
			bld  itree.Builder
			fi   int
			open bool
			held trace.MutexSet
			dec  trace.Decoder
		)
		finish := func() {
			if !open {
				return
			}
			preMerge += bld.Len()
			accesses += bld.Accesses()
			r, _ := bld.Finish(true)
			runs += len(r)
			bld.Reset()
			open = false
		}
		for _, b := range blocks[slot] {
			dec.Reset(b.raw)
			for dec.More() {
				n := 0
				d, err := l.tr.do("trace.event_decode", func() error {
					for ; n < len(buf) && dec.More(); n++ {
						buf[n].pos = b.start + uint64(dec.Pos())
						if err := dec.Next(&buf[n].ev); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				decodeT += d
				events += uint64(n)
				d, err = l.tr.do("itree.build", func() error {
					for i := range buf[:n] {
						pe := &buf[i]
						for fi < len(frags) && pe.pos >= frags[fi].DataBegin+frags[fi].DataSize {
							finish()
							fi++
						}
						if fi >= len(frags) || pe.pos < frags[fi].DataBegin {
							return fmt.Errorf("slot %d: event at %d outside any fragment", slot, pe.pos)
						}
						if !open {
							open, held = true, frags[fi].Held
						}
						switch pe.ev.Kind {
						case trace.KindMutexAcquire:
							held = held.With(pe.ev.Mutex)
						case trace.KindMutexRelease:
							held = held.Without(pe.ev.Mutex)
						case trace.KindAccess:
							bld.Insert(itree.Access{Addr: pe.ev.Addr, Width: uint64(pe.ev.Size), Write: pe.ev.Write,
								Atomic: pe.ev.Atomic, PC: pe.ev.PC, Mutexes: held})
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				buildT += d
			}
		}
		d, _ := l.tr.do("itree.build", func() error { finish(); return nil })
		buildT += d
	}

	l.set("trace.meta_read_s", metaRead.Seconds())
	l.set("trace.meta_records", float64(records))
	l.set("trace.log_read_s", logRead.Seconds())
	l.set("trace.log_read_self_s", (logRead - decode).Seconds())
	l.set("trace.blocks", float64(nBlocks))
	l.set("trace.event_decode_s", decodeT.Seconds())
	l.set("trace.events_decoded", float64(events))
	l.set("trace.decode_ns_per_event", ratio(float64(decodeT.Nanoseconds()), float64(events)))
	l.set("compress.encode_s", encode.Seconds())
	l.set("compress.encode_mb_per_s", mb/encode.Seconds())
	l.set("compress.decode_s", decode.Seconds())
	l.set("compress.decode_mb_per_s", mb/decode.Seconds())
	l.set("compress.ratio", ratio(float64(rawBytes), float64(repacked)))
	l.set("itree.build_s", buildT.Seconds())
	l.set("itree.runs", float64(runs))
	l.set("itree.insert_ns_per_access", ratio(float64(buildT.Nanoseconds()), float64(accesses)))
	l.set("itree.compaction_ratio", ratio(float64(preMerge), float64(runs)))
	l.set("core.trees_gap_s", l.res.PerLayer["core.trees_s"].Value-(logRead+decodeT+buildT).Seconds())
	if repacked != packedBytes {
		return fmt.Errorf("re-encoding the log gave %d bytes, the collector wrote %d", repacked, packedBytes)
	}

	// Label algebra over the run's own labels; solver over seeded
	// progressions, half sharing an address (same stride, overlapping
	// ranges) and half interleaved so no byte is shared.
	if len(labels) < 2 {
		return errors.New("trace has fewer than two level-1 fragments")
	}
	const calls = 1 << 18
	seq, _ := l.tr.do("osl.sequential", func() error {
		n := 0
		for i := 0; i < calls; i++ {
			j := i % (len(labels) - 1)
			if osl.Sequential(labels[j], labels[j+1]) {
				n++
			}
		}
		sink = n
		return nil
	})
	l.set("osl.sequential_ns", float64(seq.Nanoseconds())/calls)

	rng := rand.New(rand.NewPCG(l.cfg.seed, 0x696c70))
	type pair struct{ a, b ilp.Progression }
	pairs := make([]pair, 1024)
	for i := range pairs {
		stride := uint64(8 * (2 + rng.IntN(15)))
		base := uint64(1<<28) + uint64(rng.IntN(1<<20))*8
		a := ilp.Progression{Base: base, Stride: stride, Count: uint64(64 + rng.IntN(4096)), Width: 8}
		b := a
		if i%2 == 0 {
			b.Base += stride * uint64(rng.IntN(32)) // hit: same lattice
		} else {
			b.Base += 8 + stride*uint64(rng.IntN(32)) // miss: shifted by one word
		}
		pairs[i] = pair{a, b}
	}
	hits := 0
	isect, _ := l.tr.do("ilp.intersect", func() error {
		for i := 0; i < calls; i++ {
			p := &pairs[i%len(pairs)]
			if _, ok := ilp.Intersect(p.a, p.b); ok {
				hits++
			}
		}
		return nil
	})
	if hits != calls/2 {
		return fmt.Errorf("ilp.Intersect found %d hits in %d calls, want half", hits, calls)
	}
	l.set("ilp.intersect_ns", float64(isect.Nanoseconds())/calls)
	return nil
}

// sink keeps measured results alive so the compiler cannot drop the call.
var sink int

// modeLanes runs every other way of analyzing the same trace dir; each
// must return the pinned race set.
func (l *layers) modeLanes() error {
	ctx := context.Background()
	store, err := trace.NewDirStore(l.kept)
	if err != nil {
		return err
	}
	defer store.Close()

	var units int
	plan, err := l.tr.do("core.plan", func() error {
		ba, err := core.NewBatchAnalyzer(store, core.Config{})
		if err != nil {
			return err
		}
		units = len(ba.Units())
		return nil
	})
	if err != nil {
		return err
	}
	l.set("core.plan_s", plan.Seconds())
	l.set("core.units", float64(units))

	// Subtree batching, once timed and once under the heap sampler.
	var st *sword.RunStats
	batch, _ := l.tr.do("core.batch", func() error {
		rep, s, err := sword.AnalyzeContext(ctx, l.kept, sword.WithSubtreeBatch(1))
		st = s
		l.verdict("core.batch", rep, err)
		return nil
	})
	l.set("core.batch_s", batch.Seconds())
	if st != nil {
		l.set("trace.blocks_skipped", float64(st.BlocksSkipped))
	}
	var batchPeak uint64
	l.tr.do("core.batch.heap", func() error {
		_, batchPeak = heapPeak(func() {
			rep, _, err := sword.AnalyzeContext(ctx, l.kept, sword.WithSubtreeBatch(1))
			l.verdict("core.batch.heap", rep, err)
		})
		return nil
	})
	l.set("core.batch_heap_peak_bytes", float64(batchPeak))

	// Streaming, catch-up: the live analyzer over the finished directory.
	catchup, _ := l.tr.do("stream.catchup", func() error {
		rep, s, err := sword.AnalyzeLive(ctx, l.kept)
		st = s
		l.verdict("stream.catchup", rep, err)
		return nil
	})
	l.set("stream.catchup_s", catchup.Seconds())
	if st != nil {
		l.set("stream.epochs_sealed", float64(st.Metrics.Value("stream.epochs_sealed")))
		l.set("stream.tail_retries", float64(st.Metrics.Value("stream.tail_retries")))
	}
	if err := l.streamConcurrent(); err != nil {
		return err
	}

	local, _ := l.tr.do("dist.local", func() error {
		rep, err := dist.Local(ctx, store, l.cfg.threads)
		l.verdict("dist.local", rep, err)
		return nil
	})
	l.set("dist.local_s", local.Seconds())
	l.set("dist.vs_single_x", local.Seconds()/l.singleS)

	if err := l.serverLane(); err != nil {
		return err
	}

	rep, _, err := sword.AnalyzeContext(ctx, l.kept)
	if !l.verdict("report.render", rep, err) {
		return errors.New("analysis for report rendering failed")
	}
	render, err := l.tr.do("report.render", func() error {
		sink = len(rep.String())
		data, err := rep.MarshalJSON()
		sink += len(data)
		return err
	})
	if err != nil {
		return err
	}
	l.set("report.render_s", render.Seconds())
	l.set("report.races", float64(rep.Len()))
	return nil
}

// streamConcurrent runs the live analyzer beside a live-flush collection
// of the same program: two app threads plus an analyzer on two cores
// measures the scheduler as much as the code, so these numbers are
// recorded but nothing is gated on them.
func (l *layers) streamConcurrent() error {
	dir, err := l.newDir()
	if err != nil {
		return err
	}
	m := sword.NewMetrics()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		rep       *sword.Report
		liveErr   error
		liveDone  time.Time
		firstSeal time.Duration
	)
	_, err = l.tr.do("stream.concurrent", func() error {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rep, _, liveErr = sword.AnalyzeLive(ctx, dir, sword.WithObs(m))
			liveDone = time.Now()
		}()
		sealed := make(chan struct{})
		go func() {
			defer close(sealed)
			c := m.Counter("stream.epochs_sealed")
			for c.Load() == 0 {
				select {
				case <-done:
					firstSeal = time.Since(start)
					return
				case <-time.After(500 * time.Microsecond):
				}
			}
			firstSeal = time.Since(start)
		}()
		_, err := l.collectMode(true, sword.WithLogDir(dir))
		collected := time.Now()
		if err != nil {
			cancel()
		}
		<-done
		<-sealed
		if err != nil {
			return err
		}
		l.set("stream.lag_s", liveDone.Sub(collected).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	l.verdict("stream.concurrent", rep, liveErr)
	l.set("stream.first_seal_s", firstSeal.Seconds())
	l.set("stream.frontier_peak_bytes", float64(m.Snapshot().Value("stream.frontier_bytes_peak")))
	return nil
}

// microLanes time the per-call costs the workloads multiply: team start,
// barrier, and the collector's Access under the three regimes.
func (l *layers) microLanes() error {
	T := l.cfg.threads
	regions, barriers, accesses := 2000, 20000, 1<<21
	if l.cfg.tiny {
		regions, barriers, accesses = 50, 200, 1<<12
	}
	fork, _ := l.tr.do("omp.fork_join", func() error {
		rtm := omp.New()
		for i := 0; i < regions; i++ {
			rtm.Parallel(T, func(*omp.Thread) {})
		}
		return nil
	})
	l.set("omp.fork_join_us", fork.Seconds()*1e6/float64(regions))
	barrier, _ := l.tr.do("omp.barrier", func() error {
		omp.New().Parallel(T, func(th *omp.Thread) {
			for i := 0; i < barriers; i++ {
				th.Barrier()
			}
		})
		return nil
	})
	l.set("omp.barrier_us", barrier.Seconds()*1e6/float64(barriers))

	// access times n writes per thread into the thread's own address range
	// and returns wall nanoseconds per write as each thread sees it.
	pc := omp.Site("bench:access")
	access := func(name string, threads int, m *obs.Metrics) (float64, error) {
		col := rt.New(trace.NewMemStore(), rt.Config{Obs: m})
		rtm := omp.New(omp.WithTool(col))
		d, _ := l.tr.do(name, func() error {
			rtm.Parallel(threads, func(th *omp.Thread) {
				base := 0x100000 + uint64(th.ID())<<24
				for i := 0; i < accesses; i++ {
					th.Write(base+uint64(i&4095)*8, 8, pc)
				}
			})
			return nil
		})
		return float64(d.Nanoseconds()) / float64(accesses), col.Close()
	}
	// Sessions always hand the collector a registry, so the production
	// numbers are the ones with Obs set; the nil-Obs run prices it.
	hot, err := access("rt.access_hot", 1, obs.New())
	if err != nil {
		return err
	}
	team, err := access("rt.access_team", T, obs.New())
	if err != nil {
		return err
	}
	teamNoObs, err := access("rt.access_team.noobs", T, nil)
	if err != nil {
		return err
	}
	l.set("rt.access_hot_ns", hot)
	l.set("rt.access_team_ns", team)
	l.set("obs.access_overhead_ns", team-teamNoObs)

	// Certified: an affine store loop the static filter proves disjoint,
	// so Access is never reached.
	col := rt.New(trace.NewMemStore(), rt.Config{StaticFilter: true, Obs: obs.New()})
	rtm := omp.New(omp.WithTool(col))
	arr, err := memsim.NewSpace(nil).AllocF64(accesses)
	if err != nil {
		return err
	}
	loop := omp.NewAffineLoop()
	ref := loop.WriteF64(arr, 1, 0, pc)
	cert, _ := l.tr.do("rt.access_certified", func() error {
		rtm.Parallel(T, func(th *omp.Thread) {
			th.ForAffine(loop, 0, accesses, func(it *omp.AffineIter) { it.StoreF64(ref, 1) })
		})
		return nil
	})
	if err := col.Close(); err != nil {
		return err
	}
	if st := col.Stats(); st.EventsFiltered != uint64(accesses) {
		return fmt.Errorf("static filter dropped %d of %d certified accesses", st.EventsFiltered, accesses)
	}
	l.set("rt.access_certified_ns", float64(cert.Nanoseconds())/float64(accesses/T))
	return nil
}
