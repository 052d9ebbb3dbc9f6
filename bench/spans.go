package main

import (
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not traced). Parent 0 means a root
// span; every span of a run carries the workload as its shared id.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"` // duration minus the children's durations
}

// tracer keeps spans in memory until the run ends. It is driven from one
// goroutine, so the open-span stack gives each span its parent. A nil
// tracer records nothing: do still times the call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int // indexes into spans of the open spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f inside a span named name and returns how long f took.
func (t *tracer) do(name string, f func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Workload: t.workload})
	t.stack = append(t.stack, idx)
	start := time.Now()
	err := f()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].StartNs = start.Sub(t.t0).Nanoseconds()
	t.spans[idx].EndNs = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start), err
}

// finish derives each span's self time and returns the spans.
func (t *tracer) finish() []span {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
	return t.spans
}
