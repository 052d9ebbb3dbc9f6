package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sword/internal/core"
	"sword/internal/report"
	"sword/internal/trace"
)

// Job states. Terminal states are done, partial, failed, and canceled;
// queued and running jobs re-enqueue across a server restart.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"    // clean analysis, full coverage
	StatePartial  = "partial" // damaged upload: report of what survived
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one analysis of one uploaded trace. The exported fields are the
// persisted record (job.json) and the status JSON the API serves.
type Job struct {
	ID         string    `json:"id"`
	Tenant     string    `json:"tenant"`
	State      string    `json:"state"`
	Bytes      int64     `json:"bytes"`             // admitted upload size
	Salvage    bool      `json:"salvage,omitempty"` // the analysis found the upload damaged
	Attempts   int       `json:"attempts"`
	MemBudget  int64     `json:"mem_budget"` // current per-attempt analyzer budget
	Error      string    `json:"error,omitempty"`
	Races      int       `json:"races,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	RetryAt    time.Time `json:"retry_at,omitzero"` // backoff gate; zero = ready

	dir    string                  // DataDir/jobs/<id>
	cancel context.CancelCauseFunc // non-nil while running
	rep    *report.Report          // in-memory once finished or loaded
}

// Cancellation causes the runner tells apart: draining requeues without
// burning an attempt, a heap-guard trip retries under half the budget,
// an explicit cancel is terminal.
var (
	errDraining = errors.New("server draining")
	errMemGuard = errors.New("server heap budget exceeded")
	errCanceled = errors.New("canceled by client")
)

func (j *Job) traceDir() string { return filepath.Join(j.dir, "trace") }
func (j *Job) jobPath() string  { return filepath.Join(j.dir, "job.json") }
func (j *Job) repPath() string  { return filepath.Join(j.dir, "report.json") }
func (j *Job) terminal() bool {
	switch j.State {
	case StateDone, StatePartial, StateFailed, StateCanceled:
		return true
	}
	return false
}

// persistJob writes the job record atomically (rename over the old one),
// so a crash mid-write cannot leave a torn record. Caller always holds
// s.mu: job fields are only read or written under it.
func (s *Server) persistJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	tmp := j.jobPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, j.jobPath())
}

// recover scans DataDir/jobs at startup: terminal jobs are listed and
// serve their persisted reports; queued and running jobs (a crash or
// drain interrupted them) re-enqueue in creation order — the queue
// persistence Drain relies on.
func (s *Server) recover() error {
	root := filepath.Join(s.cfg.DataDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	var requeue []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j := &Job{dir: filepath.Join(root, e.Name())}
		data, err := os.ReadFile(j.jobPath())
		if err != nil || json.Unmarshal(data, j) != nil || j.ID != e.Name() {
			// Half-created directory: an upload session the previous
			// incarnation never committed. Nothing will ever claim it, so
			// reclaim the disk instead of accumulating orphans forever.
			os.RemoveAll(j.dir)
			continue
		}
		s.jobs[j.ID] = j
		if j.terminal() {
			continue
		}
		// An interrupted run restarts from queued; its attempt count and
		// reduced memory budget carry over.
		j.State = StateQueued
		j.RetryAt = time.Time{}
		s.tenantLive[j.Tenant]++
		s.tenantBytes[j.Tenant] += j.Bytes
		s.usedBytes += j.Bytes
		requeue = append(requeue, j)
	}
	sort.Slice(requeue, func(i, k int) bool { return requeue[i].CreatedAt.Before(requeue[k].CreatedAt) })
	for _, j := range requeue {
		s.enqueueLocked(j)
		s.m.Counter("server.jobs_recovered").Inc()
	}
	return nil
}

// runner is one worker of the pool: pull a job under the fairness
// scheduler, run one attempt, decide its fate.
func (s *Server) runner() {
	defer s.runnersWG.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runAttempt(j)
	}
}

// runAttempt executes one bounded attempt of j and routes the outcome:
// success finishes the job, a damaged trace finishes it partial with the
// report of what survived, drain requeues it for the next incarnation, a
// heap-guard trip halves the budget and retries, and anything else
// retries under the dist backoff discipline until MaxAttempts fails it
// loud.
func (s *Server) runAttempt(j *Job) {
	ctx, cancel := context.WithCancelCause(context.Background())
	tctx, tcancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
	s.mu.Lock()
	if s.closed {
		// Drain won the race before this attempt started: back to the
		// queue it goes, to be persisted.
		j.State = StateQueued
		s.mu.Unlock()
		tcancel()
		cancel(nil)
		return
	}
	j.cancel = cancel
	j.Attempts++
	_ = s.persistJob(j)
	memBudget := j.MemBudget
	s.mu.Unlock()

	rep, err := s.analyze(tctx, j, memBudget)
	tcancel()

	// Every canceller runs under s.mu: a cancel answered 202 still lands.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	cause := context.Cause(ctx)
	cancel(nil)
	switch {
	case errors.Is(cause, errCanceled):
		s.finishJob(j, nil, errCanceled)
	case err == nil:
		s.finishJob(j, rep, nil)
	case errors.Is(err, trace.ErrTraceDamaged):
		if !j.Salvage {
			j.Salvage = true
			s.m.Counter("server.uploads_damaged").Inc()
		}
		s.finishJob(j, rep, nil)
	case errors.Is(cause, errDraining):
		j.Attempts-- // drain is the server's fault, not the job's
		j.State = StateQueued
		j.RetryAt = time.Time{}
		s.sched.push(j)
		s.m.Counter("server.jobs_requeued").Inc()
	case errors.Is(cause, errMemGuard):
		j.MemBudget = max(j.MemBudget/2, 1<<20)
		s.m.Counter("server.mem_cancels").Inc()
		s.retryOrFail(j, fmt.Errorf("heap guard canceled attempt %d", j.Attempts))
	default:
		s.retryOrFail(j, err)
	}
}

// retryOrFail requeues j under exponential backoff, or fails it loud
// once the attempt budget is spent. Caller holds s.mu.
func (s *Server) retryOrFail(j *Job, err error) {
	if j.Attempts >= s.cfg.MaxAttempts {
		s.finishJob(j, nil, fmt.Errorf("attempt %d/%d: %w", j.Attempts, s.cfg.MaxAttempts, err))
		return
	}
	j.Error = err.Error() // surfaced in status while the retry waits
	j.State = StateQueued
	j.RetryAt = time.Now().Add(s.cfg.RetryBackoff << min(j.Attempts-1, 16))
	s.sched.push(j)
	s.m.Counter("server.jobs_retried").Inc()
	s.m.Gauge("server.queue_depth").Set(int64(s.sched.depth))
	s.cond.Broadcast() // a timed waiter may need the new, earlier wake
	_ = s.persistJob(j)
}

// finishJob moves j to its terminal state, persists the report, releases
// the job's admission charge, and deletes the uploaded trace (the report
// is what the API serves from here on). Caller holds s.mu.
func (s *Server) finishJob(j *Job, rep *report.Report, err error) {
	j.FinishedAt = time.Now()
	j.RetryAt = time.Time{}
	switch {
	case err == nil && j.Salvage:
		j.State = StatePartial
		j.Error = ""
		s.m.Counter("server.jobs_salvaged").Inc()
	case err == nil:
		j.State = StateDone
		j.Error = ""
		s.m.Counter("server.jobs_done").Inc()
	case errors.Is(err, errCanceled):
		j.State = StateCanceled
		j.Error = err.Error()
		s.m.Counter("server.jobs_canceled").Inc()
	default:
		j.State = StateFailed
		j.Error = err.Error()
		s.m.Counter("server.jobs_failed").Inc()
	}
	if rep != nil {
		j.rep = rep
		j.Races = rep.Len()
		if data, merr := json.Marshal(rep); merr == nil {
			_ = os.WriteFile(j.repPath(), append(data, '\n'), 0o644)
		}
	}
	s.releaseLocked(j)
	os.RemoveAll(j.traceDir())
	_ = s.persistJob(j)
}

// releaseLocked returns j's admission charge to the budgets. Caller
// holds s.mu.
func (s *Server) releaseLocked(j *Job) {
	s.refundLocked(j.Tenant, j.Bytes)
	s.m.Counter("server.bytes_released").Add(uint64(j.Bytes))
}

// analyze runs one attempt's actual analysis, in process and bounded by
// memBudget, a snapshot taken under s.mu — the job itself is not touched
// here. A damaged upload returns the report of what survived together
// with an error matching trace.ErrTraceDamaged.
func (s *Server) analyze(ctx context.Context, j *Job, memBudget int64) (*report.Report, error) {
	store, err := trace.NewDirStore(j.traceDir())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return core.New(store, core.Config{
		Workers:      s.cfg.Workers,
		MemoryBudget: memBudget,
		Obs:          s.m,
	}).AnalyzeContext(ctx)
}

// cancelJob cancels a job by id on behalf of a client: queued jobs leave
// the queue immediately, running jobs abort at the next analysis
// checkpoint. Terminal jobs are left alone (false).
func (s *Server) cancelJob(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.State {
	case StateQueued:
		if s.sched.remove(j) {
			s.m.Gauge("server.queue_depth").Set(int64(s.sched.depth))
			s.finishJob(j, nil, errCanceled)
			return true
		}
		return false
	case StateRunning:
		if j.cancel != nil {
			j.cancel(errCanceled)
		}
		return true
	}
	return false
}

// loadReport returns the job's report JSON, from memory or disk.
func (j *Job) loadReport() ([]byte, error) {
	if j.rep != nil {
		return json.Marshal(j.rep)
	}
	return os.ReadFile(j.repPath())
}
