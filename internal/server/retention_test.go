package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sword/internal/obs"
)

// TestAbortRefundsExactlyOnce races many aborts of one session: exactly
// one may refund, or the double-decrement corrupts the admission
// accounting for the server's lifetime (negative usedBytes defeats the
// global byte budget).
func TestAbortRefundsExactlyOnce(t *testing.T) {
	s := newTestServer(t)
	u, err := s.newUpload("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.saveFile(u, "sword_0.log", strings.NewReader("junk")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.abortUpload(u, nil)
		}()
	}
	wg.Wait()
	s.mu.Lock()
	used, live := s.usedBytes, s.tenantLive["t1"]
	s.mu.Unlock()
	if used != 0 || live != 0 {
		t.Fatalf("after concurrent aborts: usedBytes=%d tenantLive=%d, want 0/0", used, live)
	}
}

// TestAbortAfterCommitDoesNotRefund aborts a session that already
// committed: the job owns the charge now, and an extra refund would
// drive the accounting negative once the job releases it too.
func TestAbortAfterCommitDoesNotRefund(t *testing.T) {
	s := newTestServer(t)
	u, err := s.newUpload("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.saveFile(u, "sword_0.log", strings.NewReader("junk")); err != nil {
		t.Fatal(err)
	}
	j, err := s.commitUpload(u)
	if err != nil {
		t.Fatal(err)
	}
	s.abortUpload(u, nil) // stale handle: must be a no-op

	deadline := time.Now().Add(30 * time.Second)
	for {
		if jj := s.lookupJob(j.ID); jj != nil {
			s.mu.Lock()
			done := jj.terminal()
			s.mu.Unlock()
			if done {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	used := s.usedBytes
	s.mu.Unlock()
	if used != 0 {
		t.Fatalf("after job release: usedBytes=%d, want 0 (negative means double refund)", used)
	}
}

// TestSaveFileAfterAbortRefused verifies a closed session accepts no
// more data: the charge would otherwise never be refunded.
func TestSaveFileAfterAbortRefused(t *testing.T) {
	s := newTestServer(t)
	u, err := s.newUpload("t1")
	if err != nil {
		t.Fatal(err)
	}
	s.abortUpload(u, nil)
	if err := s.saveFile(u, "sword_0.log", strings.NewReader("junk")); err == nil {
		t.Fatal("saveFile on an aborted session succeeded")
	}
	s.mu.Lock()
	used := s.usedBytes
	s.mu.Unlock()
	if used != 0 {
		t.Fatalf("aborted session charged %d bytes", used)
	}
}

// TestUploadSessionExpires starts a session and walks away: the reaper
// must abort it, refund the tenant slot and bytes, and free the quota
// for the next client.
func TestUploadSessionExpires(t *testing.T) {
	m := obs.New()
	s := newTestServer(t, WithTenantJobs(1), WithUploadTimeout(50*time.Millisecond), WithObs(m))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/uploads", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()

	req, _ := http.NewRequest("PUT",
		ts.URL+"/api/v1/uploads/"+sess.ID+"/files/sword_0.log", strings.NewReader("junk"))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		gone := len(s.uploads) == 0 && s.usedBytes == 0 && len(s.tenantLive) == 0
		s.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned session never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Counter("server.uploads_expired").Load() == 0 {
		t.Fatal("server.uploads_expired not incremented")
	}
	// The freed slot must admit the next session under the quota of 1.
	r3, _ := http.Post(ts.URL+"/api/v1/uploads", "", nil)
	r3.Body.Close()
	if r3.StatusCode != http.StatusCreated {
		t.Fatalf("session after expiry: %d, want 201", r3.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, "jobs", sess.ID)); !os.IsNotExist(err) {
		t.Fatalf("expired session directory survived: %v", err)
	}
}

// TestCommitDuringReapNotExpired commits a session after the reaper has
// listed it as stale but before it tears it down: the commit wins, the
// job and its directory survive, and nothing is counted as expired.
func TestCommitDuringReapNotExpired(t *testing.T) {
	m := obs.New()
	s := newTestServer(t, WithObs(m))
	u, err := s.newUpload("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.saveFile(u, "sword_0.log", strings.NewReader("junk")); err != nil {
		t.Fatal(err)
	}
	stale := s.staleUploads(time.Now().Add(24 * time.Hour))
	if len(stale) != 1 || stale[0] != u {
		t.Fatalf("premise: want the session listed as stale, got %d", len(stale))
	}
	j, err := s.commitUpload(u)
	if err != nil {
		t.Fatal(err)
	}
	s.expireUploads(stale)
	if s.abortUpload(u, nil) {
		t.Fatal("abortUpload reported removing a committed session")
	}
	if n := m.Counter("server.uploads_expired").Load(); n != 0 {
		t.Fatalf("a session committed while the reaper ran was counted as expired (%d)", n)
	}
	if s.lookupJob(j.ID) == nil {
		t.Fatal("the committed job was torn down")
	}
	if _, err := os.Stat(u.dir); err != nil {
		t.Fatalf("the committed job's directory was removed: %v", err)
	}
}

// TestTerminalJobPruned runs a job to completion under a tiny JobTTL:
// the record and its DataDir directory must be pruned, bounding an
// always-on server's memory and disk.
func TestTerminalJobPruned(t *testing.T) {
	m := obs.New()
	s := newTestServer(t, WithJobTTL(50*time.Millisecond), WithObs(m))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := collectWorkloadDir(t, "critical-no")
	j := postUpload(t, ts.URL, "", dir)
	waitTerminal(t, ts.URL, j.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.lookupJob(j.ID) == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never pruned")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Counter("server.jobs_pruned").Load() == 0 {
		t.Fatal("server.jobs_pruned not incremented")
	}
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, "jobs", j.ID)); !os.IsNotExist(err) {
		t.Fatalf("pruned job directory survived: %v", err)
	}
	resp, _ := http.Get(ts.URL + "/api/v1/jobs/" + j.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job status: %d, want 404", resp.StatusCode)
	}
}

// TestRecoverRemovesJoblessDirs seeds DataDir with a directory no
// job.json claims — the remains of an upload session interrupted by a
// crash — and expects startup recovery to delete it.
func TestRecoverRemovesJoblessDirs(t *testing.T) {
	data := t.TempDir()
	orphan := filepath.Join(data, "jobs", "deadbeef0000", "trace")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "sword_0.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, WithDataDir(data))
	_ = s
	if _, err := os.Stat(filepath.Join(data, "jobs", "deadbeef0000")); !os.IsNotExist(err) {
		t.Fatalf("jobless directory survived recovery: %v", err)
	}
}
