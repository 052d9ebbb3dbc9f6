package sword_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sword"
	"sword/internal/report"
)

func TestCheckFindsLoopRace(t *testing.T) {
	rep, err := sword.Check(func(rt *sword.Runtime, space *sword.Space) {
		a, err := space.AllocF64(1000)
		if err != nil {
			t.Fatal(err)
		}
		pcR, pcW := sword.Site("quick:read"), sword.Site("quick:write")
		rt.Parallel(4, func(th *sword.Thread) {
			th.For(1, 1000, func(i int) {
				th.StoreF64(a, i, th.LoadF64(a, i-1, pcR), pcW)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() == 0 {
		t.Fatal("loop-carried dependence race not reported")
	}
	if !strings.Contains(rep.String(), "quick:") {
		t.Fatalf("report not symbolized:\n%s", rep)
	}
}

func TestCheckCleanProgram(t *testing.T) {
	rep, err := sword.Check(func(rt *sword.Runtime, space *sword.Space) {
		a, _ := space.AllocF64(1000)
		pc := sword.Site("clean:site")
		rt.Parallel(4, func(th *sword.Thread) {
			th.For(0, 1000, func(i int) {
				th.StoreF64(a, i, float64(i), pc)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("false alarms:\n%s", rep)
	}
}

func TestSessionWithLogDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	s, err := sword.NewSession(sword.WithLogDir(dir), sword.WithCodec("flate"))
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Space().AllocF64(1)
	pc := sword.Site("session:store")
	s.Runtime().Parallel(2, func(th *sword.Thread) {
		th.StoreF64(x, 0, 1, pc)
	})
	if err := s.CollectOnly(); err != nil {
		t.Fatal(err)
	}
	// Trace files must exist on disk.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < 3 { // 2 logs + 2 metas + pctable
		t.Fatalf("trace dir: %v entries, err %v", len(entries), err)
	}
	// Decoupled offline analysis, as a separate process would do it.
	rep, stats, err := sword.Analyze(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 1 {
		t.Fatalf("got %d races, want 1:\n%s", rep.Len(), rep)
	}
	if stats == nil || stats.AnalyzeTotal <= 0 {
		t.Fatalf("offline RunStats not populated: %+v", stats)
	}
	if got := stats.Metrics.Value("trace.events"); got <= 0 {
		t.Fatalf("trace.events not recorded: %d", got)
	}
}

func TestSessionFinishTwiceFails(t *testing.T) {
	s, err := sword.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s.Runtime().Parallel(1, func(th *sword.Thread) {})
	if _, _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Finish(); !errors.Is(err, sword.ErrFinished) {
		t.Fatalf("second Finish: got %v, want ErrFinished", err)
	}
}

func TestBadCodecRejected(t *testing.T) {
	if _, err := sword.NewSession(sword.WithCodec("zstd")); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestMutexProtectionPublicAPI(t *testing.T) {
	rep, err := sword.Check(func(rt *sword.Runtime, space *sword.Space) {
		x, _ := space.AllocF64(1)
		pc := sword.Site("locked:rmw")
		lock := rt.NewLock()
		rt.Parallel(8, func(th *sword.Thread) {
			th.WithLock(lock, func() {
				th.StoreF64(x, 0, th.LoadF64(x, 0, pc)+1, pc)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("lock-protected updates reported racy:\n%s", rep)
	}
}

func TestTaskingPublicAPI(t *testing.T) {
	// Racy: the continuation reads what the task writes, before taskwait.
	rep, err := sword.Check(func(rt *sword.Runtime, space *sword.Space) {
		x, _ := space.AllocF64(1)
		pcT, pcC := sword.Site("pub-task:write"), sword.Site("pub-task:read")
		rt.Parallel(2, func(th *sword.Thread) {
			if th.ID() == 0 {
				th.Task(func(tt *sword.Thread) {
					tt.StoreF64(x, 0, 1, pcT)
				})
				th.LoadF64(x, 0, pcC)
				th.TaskWait()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 1 {
		t.Fatalf("task/continuation race: got %d races\n%s", rep.Len(), rep)
	}

	// Correct: taskwait before the read.
	rep, err = sword.Check(func(rt *sword.Runtime, space *sword.Space) {
		x, _ := space.AllocF64(1)
		pcT, pcC := sword.Site("pub-taskwait:write"), sword.Site("pub-taskwait:read")
		rt.Parallel(2, func(th *sword.Thread) {
			if th.ID() == 0 {
				th.Task(func(tt *sword.Thread) {
					tt.StoreF64(x, 0, 1, pcT)
				})
				th.TaskWait()
				th.LoadF64(x, 0, pcC)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("waited task still racy:\n%s", rep)
	}
}

func TestValidateTracePublicAPI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	s, err := sword.NewSession(sword.WithLogDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Space().AllocF64(1)
	s.Runtime().Parallel(2, func(th *sword.Thread) {
		th.StoreF64(x, 0, 1, sword.Site("validate:w"))
	})
	if err := s.CollectOnly(); err != nil {
		t.Fatal(err)
	}
	if err := sword.ValidateTrace(dir); err != nil {
		t.Fatalf("clean trace invalid: %v", err)
	}
	// Damage a log file; validation must notice.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			p := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(p)
			if len(data) > 2 {
				if err := os.WriteFile(p, data[:len(data)-2], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sword.ValidateTrace(dir); err == nil {
		t.Fatal("truncated trace validated")
	}
}

// TestExitCode pins the command-line verdict, including damage that comes
// without a report (an interrupted live wait), which is a plain failure.
func TestExitCode(t *testing.T) {
	racy := report.New()
	racy.Add(report.Race{First: report.Side{PC: 1, Write: true}, Second: report.Side{PC: 2, Write: true}})
	damage := fmt.Errorf("sword: live analysis: %w", &sword.SalvageReport{Truncated: true})
	for i, c := range []struct {
		rep  *sword.Report
		err  error
		want int
	}{
		{report.New(), nil, 0}, {racy, nil, 3}, {report.New(), damage, 4}, {racy, damage, 5},
		{nil, errors.New("analysis failed"), 1}, {nil, damage, 1}, {racy, context.Canceled, 1},
	} {
		if got := sword.ExitCode(c.rep, c.err); got != c.want {
			t.Errorf("case %d: exit %d, want %d", i, got, c.want)
		}
	}
}
