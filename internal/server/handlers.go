package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs                      multipart trace upload -> queued job
//	GET    /api/v1/jobs[?tenant=t]           list jobs
//	GET    /api/v1/jobs/{id}                 job status
//	GET    /api/v1/jobs/{id}/report[?format=text]  finished job's report
//	DELETE /api/v1/jobs/{id}                 cancel a queued or running job
//	POST   /api/v1/uploads                   start a streamed upload session
//	PUT    /api/v1/uploads/{id}/files/{name} stream one trace file
//	POST   /api/v1/uploads/{id}/commit       turn the session into a job
//	DELETE /api/v1/uploads/{id}              abort the session
//	GET    /api/v1/metrics                   live obs snapshot
//	GET    /healthz                          liveness + drain state
//
// The tenant is taken from the X-Sword-Tenant header (multipart uploads
// may use the "tenant" form field instead); absent means the "default"
// tenant. See docs/FORMAT.md ("HTTP analysis service").
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleMultipart)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /api/v1/uploads", s.handleUploadStart)
	mux.HandleFunc("PUT /api/v1/uploads/{id}/files/{name}", s.handleUploadFile)
	mux.HandleFunc("POST /api/v1/uploads/{id}/commit", s.handleUploadCommit)
	mux.HandleFunc("DELETE /api/v1/uploads/{id}", s.handleUploadAbort)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Sword-Tenant"); t != "" {
		return t
	}
	return "default"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleMultipart accepts a whole trace in one multipart POST: each part
// is one sword_* file. Admission and the byte budgets apply while the
// body streams, so an oversized upload is cut mid-flight with 429, not
// after it landed.
func (s *Server) handleMultipart(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	mr, err := r.MultipartReader()
	if err != nil {
		http.Error(w, "multipart body required: "+err.Error(), http.StatusBadRequest)
		return
	}
	u, err := s.newUpload(tenant)
	if err != nil {
		shed(w, err)
		return
	}
	files := 0
	for {
		part, err := mr.NextPart()
		if err != nil {
			break
		}
		if part.FormName() == "tenant" {
			// Legacy clients send the tenant as a form field; it must
			// arrive before any file part to take effect.
			var buf [64]byte
			if n, _ := part.Read(buf[:]); n > 0 && files == 0 {
				s.retenant(u, string(buf[:n]))
			}
			continue
		}
		if part.FileName() == "" {
			continue
		}
		if err := s.saveFile(u, part.FileName(), part); err != nil {
			s.abortUpload(u, nil)
			shed(w, err)
			return
		}
		files++
	}
	if files == 0 {
		s.abortUpload(u, nil)
		http.Error(w, "upload carried no trace files", http.StatusBadRequest)
		return
	}
	j, err := s.commitUpload(u)
	if err != nil {
		shed(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// retenant moves an in-flight upload session to a different tenant
// (multipart "tenant" form field). The session has no bytes yet, so only
// the live-job slot moves.
func (s *Server) retenant(u *uploadSession, tenant string) {
	if tenant == "" || tenant == u.tenant {
		return
	}
	// Admission must hold under the new identity too.
	if err := s.admitJob(tenant); err != nil {
		return // keep the original tenant rather than failing the upload
	}
	s.releaseSlot(u.tenant)
	s.mu.Lock()
	u.tenant = tenant // chargeSession reads it under the same lock
	s.mu.Unlock()
}

func (s *Server) handleUploadStart(w http.ResponseWriter, r *http.Request) {
	u, err := s.newUpload(tenantOf(r))
	if err != nil {
		shed(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": u.id, "tenant": u.tenant})
}

func (s *Server) lookupUpload(id string) *uploadSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploads[id]
}

func (s *Server) handleUploadFile(w http.ResponseWriter, r *http.Request) {
	u := s.lookupUpload(r.PathValue("id"))
	if u == nil {
		http.Error(w, "no such upload session", http.StatusNotFound)
		return
	}
	if err := s.saveFile(u, r.PathValue("name"), r.Body); err != nil {
		s.abortUpload(u, nil)
		shed(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUploadCommit(w http.ResponseWriter, r *http.Request) {
	u := s.lookupUpload(r.PathValue("id"))
	if u == nil {
		http.Error(w, "no such upload session", http.StatusNotFound)
		return
	}
	j, err := s.commitUpload(u)
	if err != nil {
		shed(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleUploadAbort(w http.ResponseWriter, r *http.Request) {
	u := s.lookupUpload(r.PathValue("id"))
	if u == nil {
		http.Error(w, "no such upload session", http.StatusNotFound)
		return
	}
	s.abortUpload(u, nil)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) lookupJob(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.Tenant == tenant {
			out = append(out, *j) // value copy: safe to encode unlocked
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].CreatedAt.Before(out[k].CreatedAt) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		// Live lane: an id still in the upload phase serves the online
		// analyzer's growing snapshot — races found so far in the trace
		// streamed so far. The committed job's report supersedes it.
		if u := s.lookupUpload(r.PathValue("id")); u != nil && u.live != nil {
			rep := u.live.Snapshot()
			rep.Note("live: upload in progress; this report is a partial preview")
			w.Header().Set("X-Sword-Live", "1")
			if r.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_, _ = w.Write([]byte(rep.String()))
				return
			}
			writeJSON(w, http.StatusOK, rep)
			return
		}
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	state, rep := j.State, j.rep
	s.mu.Unlock()
	switch state {
	case StateDone, StatePartial:
	case StateFailed, StateCanceled:
		http.Error(w, "job "+state+": no report", http.StatusConflict)
		return
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job "+state+": report not ready", http.StatusConflict)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		if rep == nil {
			http.Error(w, "text report unavailable after restart; request JSON", http.StatusGone)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(rep.String()))
		return
	}
	data, err := j.loadReport()
	if err != nil {
		http.Error(w, "report lost: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if !s.cancelJob(j) {
		http.Error(w, "job already finished", http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleMetrics serves the live obs snapshot — every counter, gauge, and
// timer the server, analyzer, and dist layers recorded, sorted by name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	state := "ok"
	if s.draining {
		state = "draining"
	}
	depth := s.sched.depth
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      state,
		"queue_depth": depth,
		"time":        time.Now().UTC().Format(time.RFC3339),
	})
}
