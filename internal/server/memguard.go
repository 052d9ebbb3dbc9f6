package server

import (
	"os"
	"runtime"
	"time"
)

// memGuard is the service's housekeeping loop. Every tick it reaps
// abandoned upload sessions and expired terminal jobs, and — when a
// server-wide heap budget is configured — samples the Go heap and, on
// overrun, cancels the largest running job: the one whose retry under a
// halved analyzer budget buys back the most memory. The shed is graceful
// by construction: the job requeues and retries smaller instead of the
// process OOMing, and the admission byte budget upstream keeps the guard
// a backstop rather than the primary control.
func (s *Server) memGuard() {
	defer close(s.guardDone)
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-s.guardStop:
			return
		case <-t.C:
		}
		s.reap(time.Now())
		if s.cfg.MemBudget <= 0 {
			continue
		}
		runtime.ReadMemStats(&ms)
		heap := int64(ms.HeapAlloc)
		s.m.Gauge("server.heap_peak").SetMax(heap)
		if heap <= s.cfg.MemBudget {
			continue
		}
		// Over budget: give the collector one chance to disagree before
		// killing work — HeapAlloc includes garbage not yet swept.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if heap = int64(ms.HeapAlloc); heap <= s.cfg.MemBudget {
			continue
		}
		s.mu.Lock()
		var victim *Job
		for _, j := range s.jobs {
			if j.State == StateRunning && j.cancel != nil &&
				(victim == nil || j.Bytes > victim.Bytes) {
				victim = j
			}
		}
		if victim != nil {
			victim.cancel(errMemGuard)
		}
		s.mu.Unlock()
	}
}

// reap aborts upload sessions idle past UploadTimeout — a client that
// POSTs a session and walks away cannot hold a tenant job slot and
// charged bytes until restart — and prunes terminal jobs older than
// JobTTL from memory and DataDir, bounding an always-on server's growth
// as jobs complete.
func (s *Server) reap(now time.Time) {
	s.expireUploads(s.staleUploads(now))
	s.mu.Lock()
	var prune []*Job
	for _, j := range s.jobs {
		if j.terminal() && !j.FinishedAt.IsZero() && now.Sub(j.FinishedAt) > s.cfg.JobTTL {
			prune = append(prune, j)
		}
	}
	s.mu.Unlock()
	for _, j := range prune {
		// The directory goes first and the record last, counted under
		// s.mu: whoever sees the job gone sees its directory gone and the
		// prune counted. A terminal job never changes state again.
		os.RemoveAll(j.dir)
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.m.Counter("server.jobs_pruned").Inc()
		s.mu.Unlock()
	}
}

// staleUploads lists the upload sessions idle past UploadTimeout at now.
func (s *Server) staleUploads(now time.Time) []*uploadSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stale []*uploadSession
	for _, u := range s.uploads {
		if now.Sub(u.lastActive) > s.cfg.UploadTimeout {
			stale = append(stale, u)
		}
	}
	return stale
}

// expireUploads aborts stale sessions and counts into
// server.uploads_expired each one the abort removed: a session committed
// or aborted since it was listed is neither torn down nor counted.
func (s *Server) expireUploads(stale []*uploadSession) {
	expired := s.m.Counter("server.uploads_expired")
	for _, u := range stale {
		s.abortUpload(u, expired)
	}
}
