package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"sword/internal/stream"
)

// Upload layout: files must be named exactly as a DirStore lays a trace
// out on disk — per-slot logs and metas plus named aux streams. The
// pattern is also the traversal guard: no separators, no absolute paths,
// nothing a client names reaches outside the job's trace directory.
var (
	reSlotFile = regexp.MustCompile(`^sword_(\d{1,6})\.(log|meta)$`)
	reAuxFile  = regexp.MustCompile(`^sword_[A-Za-z0-9._-]{1,64}\.aux$`)
)

// validUploadName reports whether name is an acceptable trace file name.
func validUploadName(name string) bool {
	return reSlotFile.MatchString(name) || reAuxFile.MatchString(name)
}

// admission errors map to the API's shed responses.
var (
	errShedBytes   = errors.New("byte budget exhausted")
	errShedTenant  = errors.New("tenant quota exhausted")
	errDrainReject = errors.New("server is draining")
)

// admitJob reserves a live-job slot for tenant. Shedding happens here,
// at the front door, not after the bytes are on disk.
func (s *Server) admitJob(tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return errDrainReject
	}
	if s.tenantLive[tenant] >= s.cfg.TenantJobs {
		s.m.Counter("server.jobs_shed").Inc()
		return fmt.Errorf("%w: %d live job(s)", errShedTenant, s.tenantLive[tenant])
	}
	s.tenantLive[tenant]++
	return nil
}

// chargeSession reserves n more upload bytes against the global and
// per-tenant budgets and counts them into the session, all under one
// lock. It is called per chunk while an upload streams, so a client
// lying about (or omitting) Content-Length still cannot overrun the
// budget — the stream is cut at the boundary instead. The liveness check
// makes commit/abort a hard cut-off: once the session leaves s.uploads
// its byte total is frozen, so a PUT racing a commit cannot charge bytes
// the job's eventual release would not refund.
func (s *Server) chargeSession(u *uploadSession, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.uploads[u.id]; !live {
		return errors.New("upload session closed")
	}
	if s.usedBytes+n > s.cfg.GlobalBytes {
		s.m.Counter("server.jobs_shed").Inc()
		return fmt.Errorf("%w: %d of %d global byte(s) in use", errShedBytes, s.usedBytes, s.cfg.GlobalBytes)
	}
	if s.tenantBytes[u.tenant]+n > s.cfg.TenantBytes {
		s.m.Counter("server.jobs_shed").Inc()
		return fmt.Errorf("%w: %d of %d tenant byte(s) in use", errShedBytes, s.tenantBytes[u.tenant], s.cfg.TenantBytes)
	}
	s.usedBytes += n
	s.tenantBytes[u.tenant] += n
	u.bytes += n
	u.lastActive = time.Now()
	s.m.Counter("server.bytes_admitted").Add(uint64(n))
	return nil
}

// refundLocked returns an upload's byte and live-job-slot charges to the
// admission budgets. Caller holds s.mu and must have already made the
// charge unrepeatable (session out of s.uploads, or job going terminal)
// so no path can refund twice.
func (s *Server) refundLocked(tenant string, bytes int64) {
	s.usedBytes -= bytes
	if s.tenantBytes[tenant] -= bytes; s.tenantBytes[tenant] <= 0 {
		delete(s.tenantBytes, tenant)
	}
	if s.tenantLive[tenant]--; s.tenantLive[tenant] <= 0 {
		delete(s.tenantLive, tenant)
	}
}

// releaseSlot undoes admitJob for an upload that never became a job.
func (s *Server) releaseSlot(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenantLive[tenant]--; s.tenantLive[tenant] <= 0 {
		delete(s.tenantLive, tenant)
	}
}

// budgetWriter charges every chunk against the admission budgets before
// it reaches disk and counts the upload's total.
type budgetWriter struct {
	s *Server
	u *uploadSession
	w io.Writer
}

func (bw budgetWriter) Write(p []byte) (int, error) {
	if err := bw.s.chargeSession(bw.u, int64(len(p))); err != nil {
		return 0, err
	}
	return bw.w.Write(p)
}

// uploadSession is a streamed upload in progress: files PUT one at a
// time into what becomes the job's trace directory, then committed as
// one job (or aborted). The session id is the future job id. All fields
// past id/dir are guarded by Server.mu — concurrent PUTs to one session
// share the byte total, and the reaper reads lastActive.
type uploadSession struct {
	id         string
	tenant     string
	dir        string // job dir; files land in dir/trace
	bytes      int64
	lastActive time.Time // reaper deadline basis; touched per chunk

	// Live lane (see live.go): an online analyzer tailing dir/trace while
	// the upload streams. Set before the session is published, never
	// reassigned; liveOnce makes stopLive safe from commit, abort, and
	// drain concurrently.
	live     *stream.Analyzer
	liveStop context.CancelFunc
	liveDone chan struct{}
	liveOnce sync.Once
}

// newUpload starts a session: admission (slot) happens now, bytes are
// charged as the files stream.
func (s *Server) newUpload(tenant string) (*uploadSession, error) {
	if err := s.admitJob(tenant); err != nil {
		return nil, err
	}
	u := &uploadSession{
		id:         newID(),
		tenant:     tenant,
		lastActive: time.Now(),
	}
	u.dir = filepath.Join(s.cfg.DataDir, "jobs", u.id)
	if err := os.MkdirAll(filepath.Join(u.dir, "trace"), 0o755); err != nil {
		s.releaseSlot(tenant)
		return nil, err
	}
	s.startLive(u)
	s.mu.Lock()
	s.uploads[u.id] = u
	s.mu.Unlock()
	return u, nil
}

// saveFile streams one named trace file into the session under the byte
// budgets. The name is validated before any byte lands, and a session
// already committed or aborted refuses data up front (every chunk
// re-checks inside chargeSession, so a mid-stream commit or abort cuts
// the transfer at the next chunk boundary).
func (s *Server) saveFile(u *uploadSession, name string, r io.Reader) error {
	if !validUploadName(name) {
		return fmt.Errorf("invalid trace file name %q", name)
	}
	s.mu.Lock()
	_, live := s.uploads[u.id]
	if live {
		u.lastActive = time.Now()
	}
	s.mu.Unlock()
	if !live {
		return errors.New("upload session closed")
	}
	f, err := os.Create(filepath.Join(u.dir, "trace", name))
	if err != nil {
		return err
	}
	_, cerr := io.Copy(budgetWriter{s: s, u: u, w: f}, r)
	if err := f.Close(); cerr == nil {
		cerr = err
	}
	return cerr
}

// abortUpload tears a session down and refunds its admission charges.
// The refund happens only if this call is the one that removes the
// session from s.uploads: two racing aborts (or an abort racing a
// commit, or the error paths of concurrent PUTs) refund exactly once, so
// the admission accounting cannot be driven negative.
func (s *Server) abortUpload(u *uploadSession) {
	s.mu.Lock()
	if _, live := s.uploads[u.id]; !live {
		s.mu.Unlock()
		return
	}
	delete(s.uploads, u.id)
	s.refundLocked(u.tenant, u.bytes)
	s.mu.Unlock()
	u.stopLive()
	os.RemoveAll(u.dir)
}

// commitUpload turns a completed session into a queued job, returning a
// snapshot of the fresh record (a runner may start mutating the live one
// the moment the lock drops). A damaged or torn upload is not rejected:
// its analysis salvages what survived and the job finishes partial — the
// graceful-degradation contract for half-written production traces.
func (s *Server) commitUpload(u *uploadSession) (Job, error) {
	s.mu.Lock()
	if _, live := s.uploads[u.id]; !live {
		s.mu.Unlock()
		return Job{}, errors.New("upload already committed or aborted")
	}
	delete(s.uploads, u.id)
	// u.bytes is frozen from here: chargeSession refuses chunks for a
	// session no longer in s.uploads, so this snapshot is exactly what
	// finishJob will release.
	j := &Job{
		ID:        u.id,
		Tenant:    u.tenant,
		Bytes:     u.bytes,
		MemBudget: s.cfg.JobMemBudget,
		CreatedAt: time.Now(),
		dir:       u.dir,
	}
	s.mu.Unlock()
	// The committed job's analysis is authoritative from here; the live
	// lane lets go of the trace files before it reads them.
	u.stopLive()
	s.mu.Lock()
	if s.draining || s.closed {
		// The session already left s.uploads, so abortUpload would see it
		// as dead and refund nothing — tear down inline instead.
		s.refundLocked(j.Tenant, j.Bytes)
		s.mu.Unlock()
		os.RemoveAll(j.dir)
		return Job{}, errDrainReject
	}
	s.jobs[j.ID] = j
	_ = s.persistJob(j)
	s.enqueueLocked(j)
	s.m.Counter("server.jobs_admitted").Inc()
	snap := *j
	s.mu.Unlock()
	return snap, nil
}

// shed writes the admission-control rejection: 429 with Retry-After for
// budget sheds, 503 for a draining server, 400 for malformed uploads.
func shed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDrainReject):
		w.Header().Set("Retry-After", "10")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, errShedBytes), errors.Is(err, errShedTenant):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// retryAfterSeconds is the advisory backoff handed to shed clients.
const retryAfterSeconds = 2
