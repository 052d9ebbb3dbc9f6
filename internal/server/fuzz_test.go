package server

import (
	"bytes"
	"context"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzMux  http.Handler
	fuzzDir  string
)

// fuzzServer builds one shared service per fuzz worker process: cheap
// retries, one runner, a small byte budget so budget sheds get exercised
// too. Jobs the fuzzer manages to create are junk; they salvage-analyze
// in microseconds and release their budget.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	fuzzOnce.Do(func() {
		var err error
		fuzzDir, err = os.MkdirTemp("", "sword-fuzz-*")
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv, err = New(
			WithDataDir(fuzzDir),
			WithConcurrency(1),
			WithGlobalBytes(8<<20),
			WithMaxAttempts(1),
			WithRetryBackoff(time.Millisecond),
			WithJobTimeout(10*time.Second),
		)
		if err != nil {
			f.Fatal(err)
		}
		fuzzMux = fuzzSrv.Handler()
	})
	f.Cleanup(func() {
		// Last registered cleanup runs once per process teardown; a drain
		// here keeps goroutine and file handles bounded across runs, and
		// the data directory goes with the drained server.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = fuzzSrv.Drain(ctx)
		_ = os.RemoveAll(fuzzDir)
	})
	return fuzzSrv
}

// FuzzUploadHandler throws arbitrary bodies and content types at the
// multipart upload endpoint. Invariants: the handler never panics, never
// answers 5xx, and no client-chosen name ever creates a file outside a
// job's trace directory or one that fails the upload-name pattern.
func FuzzUploadHandler(f *testing.F) {
	var valid bytes.Buffer
	mw := multipart.NewWriter(&valid)
	fw, _ := mw.CreateFormFile("file", "sword_0.log")
	_, _ = fw.Write([]byte("not a real log, but a legal name"))
	fw, _ = mw.CreateFormFile("file", "sword_0.meta")
	_, _ = fw.Write([]byte{0, 1, 2, 3})
	_ = mw.Close()
	f.Add(mw.FormDataContentType(), valid.Bytes())

	f.Add("multipart/form-data; boundary=x", []byte(
		"--x\r\nContent-Disposition: form-data; name=\"file\"; filename=\"../../../etc/evil\"\r\n\r\npwn\r\n--x--\r\n"))
	f.Add("multipart/form-data; boundary=x", []byte(
		"--x\r\nContent-Disposition: form-data; name=\"tenant\"\r\n\r\nfuzz\r\n--x\r\nContent-Disposition: form-data; name=\"file\"; filename=\"sword_1.log\"\r\n\r\ndata\r\n--x--\r\n"))
	f.Add("multipart/form-data; boundary=x", []byte("--x--\r\n"))
	f.Add("text/plain", []byte("junk that is not multipart at all"))
	f.Add("multipart/form-data; boundary=", []byte("no boundary"))
	f.Add("multipart/form-data; boundary=y", []byte("--y\r\ntorn header"))

	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, ctype string, body []byte) {
		req := httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		fuzzMux.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("upload handler answered %d for ctype %q body %q", rec.Code, ctype, body)
		}
		// Traversal guard: whatever the handler wrote must be under a
		// job's trace dir and carry a name the pattern accepts.
		files, _ := filepath.Glob(filepath.Join(s.cfg.DataDir, "jobs", "*", "trace", "*"))
		for _, path := range files {
			if name := filepath.Base(path); !validUploadName(name) {
				t.Fatalf("upload created illegally named file %q", path)
			}
		}
		tops, _ := filepath.Glob(filepath.Join(s.cfg.DataDir, "*"))
		for _, path := range tops {
			if filepath.Base(path) != "jobs" {
				t.Fatalf("upload escaped the jobs tree: %q", path)
			}
		}
	})
}
