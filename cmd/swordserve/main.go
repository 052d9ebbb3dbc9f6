// Command swordserve runs SWORD's always-on analysis service: an HTTP
// server that ingests trace uploads from many concurrent client runs,
// queues one bounded-memory analysis job per upload under multi-tenant
// fairness, and serves reports — the production deployment shape of the
// paper's offline phase.
//
// Usage:
//
//	swordserve -listen :7080 -datadir /var/lib/sword
//	curl -F sword_0.log=@sword_0.log -F sword_0.meta=@sword_0.meta \
//	     http://host:7080/api/v1/jobs
//	curl http://host:7080/api/v1/jobs/<id>
//	curl http://host:7080/api/v1/jobs/<id>/report
//
// Overloaded tenants are shed with 429 + Retry-After; damaged uploads
// finish as partial reports of what survived; SIGTERM drains
// cleanly (admission stops, running jobs requeue and persist). See
// docs/FORMAT.md ("HTTP analysis service") for the full API.
//
// Exit codes: 0 = clean shutdown after drain, 1 = serve or drain
// failure, 2 = usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sword/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7080", "address to serve the HTTP API on")
	datadir := flag.String("datadir", "", "persistence root for jobs, traces, and reports (required)")
	globalBytes := flag.Int64("global-bytes", 0, "total stored upload bytes across live jobs (0 = 4 GiB)")
	tenantBytes := flag.Int64("tenant-bytes", 0, "per-tenant stored upload bytes (0 = a quarter of -global-bytes)")
	tenantJobs := flag.Int("tenant-jobs", 0, "per-tenant live jobs (0 = 256)")
	concurrency := flag.Int("concurrency", 0, "jobs analyzed at once (0 = 2)")
	jobMem := flag.Int64("job-mem-budget", 0, "per-job analyzer memory budget in bytes of trace volume (0 = 256 MiB)")
	memBudget := flag.Int64("mem-budget", 0, "server-wide heap budget; over it the largest job retries smaller (0 = off)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-attempt deadline (0 = 10m)")
	maxAttempts := flag.Int("max-attempts", 0, "runs per job before failing loud (0 = 3)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base exponential requeue delay (0 = 500ms)")
	quantum := flag.Int64("quantum", 0, "round-robin fairness byte quantum (0 = 64 KiB)")
	uploadTimeout := flag.Duration("upload-timeout", 0, "idle deadline before an abandoned upload session is reaped (0 = 5m)")
	jobTTL := flag.Duration("job-ttl", 0, "retention of finished jobs and their reports (0 = 24h)")
	workers := flag.Int("workers", 0, "per-job analysis parallelism (0 = GOMAXPROCS)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period on SIGTERM")
	flag.Parse()

	if *datadir == "" {
		fmt.Fprintln(os.Stderr, "swordserve: -datadir is required")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := server.New(
		server.WithDataDir(*datadir),
		server.WithGlobalBytes(*globalBytes),
		server.WithTenantBytes(*tenantBytes),
		server.WithTenantJobs(*tenantJobs),
		server.WithConcurrency(*concurrency),
		server.WithJobMemBudget(*jobMem),
		server.WithMemBudget(*memBudget),
		server.WithJobTimeout(*jobTimeout),
		server.WithMaxAttempts(*maxAttempts),
		server.WithRetryBackoff(*retryBackoff),
		server.WithQuantum(*quantum),
		server.WithUploadTimeout(*uploadTimeout),
		server.WithJobTTL(*jobTTL),
		server.WithWorkers(*workers),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swordserve:", err)
		os.Exit(1)
	}
	// Bind before announcing so the printed address is live — smoke
	// scripts poll for this line.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swordserve:", err)
		os.Exit(1)
	}
	fmt.Printf("swordserve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hsrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "swordserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("swordserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "swordserve: drain:", err)
		os.Exit(1)
	}
	if err := hsrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "swordserve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("swordserve: drained")
}
