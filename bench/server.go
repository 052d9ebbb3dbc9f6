package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sword/internal/server"
)

// serverLane pushes the kept trace through the analysis service the way a
// client would — multipart upload, poll, fetch the JSON report — against
// Server.Handler() on a loopback httptest listener.
func (l *layers) serverLane() error {
	data, err := l.newDir()
	if err != nil {
		return err
	}
	srv, err := server.New(server.WithDataDir(data))
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bench: server drain:", err)
		}
	}()

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	entries, err := os.ReadDir(l.kept)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fw, err := mw.CreateFormFile("file", e.Name())
		if err != nil {
			return err
		}
		content, err := os.ReadFile(filepath.Join(l.kept, e.Name()))
		if err != nil {
			return err
		}
		fw.Write(content) // a bytes.Buffer write cannot fail
	}
	if err := mw.Close(); err != nil {
		return err
	}
	uploadBytes := body.Len()

	var upload time.Duration
	var races []string
	job, _ := l.tr.do("server.job", func() error {
		races, upload, err = serveJob(l.tr, ts.URL, mw.FormDataContentType(), &body)
		return nil
	})
	if err == nil {
		err = checkVerdict(races, l.want)
	}
	l.verdictErr("server.job", err)
	l.set("server.job_s", job.Seconds())
	l.set("server.upload_mb_per_s", ratio(float64(uploadBytes)/1e6, upload.Seconds()))
	return nil
}

// serveJob uploads one job and returns its report's race set and how
// long the upload request took.
func serveJob(tr *tracer, base, contentType string, body io.Reader) (races []string, upload time.Duration, err error) {
	var id string
	upload, err = tr.do("server.upload", func() error {
		req, err := http.NewRequest("POST", base+"/api/v1/jobs", body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("X-Sword-Tenant", "bench")
		var j struct {
			ID string `json:"id"`
		}
		if err := doJSON(req, http.StatusAccepted, &j); err != nil {
			return err
		}
		id = j.ID
		return nil
	})
	if err != nil {
		return nil, upload, err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		req, err := http.NewRequest("GET", base+"/api/v1/jobs/"+id, nil)
		if err != nil {
			return nil, upload, err
		}
		var j struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := doJSON(req, http.StatusOK, &j); err != nil {
			return nil, upload, err
		}
		if j.State == server.StateDone {
			break
		}
		if j.State != server.StateQueued && j.State != server.StateRunning {
			return nil, upload, fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			return nil, upload, errors.New("job " + id + " did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest("GET", base+"/api/v1/jobs/"+id+"/report", nil)
	if err != nil {
		return nil, upload, err
	}
	var rep struct {
		Races []struct {
			First, Second struct{ Source, Op string }
		} `json:"races"`
	}
	if err := doJSON(req, http.StatusOK, &rep); err != nil {
		return nil, upload, err
	}
	for _, r := range rep.Races {
		races = append(races, raceKey(r.First.Op+" "+r.First.Source, r.Second.Op+" "+r.Second.Source))
	}
	sort.Strings(races)
	return races, upload, nil
}

func doJSON(req *http.Request, want int, v any) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
