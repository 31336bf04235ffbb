// Command ddserve runs the capacity-planning daemon: an HTTP/JSON service
// that accepts scenario sweeps and what-if threshold queries, schedules
// them onto a bounded simulation worker pool, and caches completed cells.
//
//	ddserve -addr :8077 &
//	curl -s localhost:8077/healthz
//	curl -s -X POST --data-binary @scenario.json 'localhost:8077/v1/sweeps?wait=1'
//	curl -s localhost:8077/v1/jobs/j1/result
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, accepted jobs
// run to completion (bounded by -drain-timeout), then the process exits.
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

	"daredevil/internal/serve"
)

// Server timeouts bound what a slow or idle client can hold. ReadTimeout
// covers the request line, headers and body only: net/http lifts the read
// deadline once the body is read, so a ?wait=1 wait is not cut off (the
// serve package's TestWaitOutlivesReadTimeout checks this). There is no
// write timeout: a ?wait=1 sweep legitimately keeps its response open for
// as long as its cells run.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	workers := flag.Int("workers", 2, "concurrent job runners")
	queueDepth := flag.Int("queue", 16, "admission queue depth (full queue => 429)")
	cellBudget := flag.Int("cell-budget", 64, "max grid cells per request (over => 400)")
	cacheEntries := flag.Int("cache", 256, "LRU result-cache entries")
	cellJ := flag.Int("j", 0, "per-job cell fan-out (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CellBudget:      *cellBudget,
		CacheEntries:    *cacheEntries,
		CellParallelism: *cellJ,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddserve:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("ddserve: listening on %s (workers=%d queue=%d budget=%d cache=%d rev=%s)\n",
		ln.Addr(), *workers, *queueDepth, *cellBudget, *cacheEntries, srv.GitRev())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("ddserve: %v received, draining\n", got)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "ddserve:", err)
		os.Exit(1)
	}

	// Stop admission first so every in-flight and queued job finishes,
	// then close the listener once results are durable in the jobs map.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ddserve: drain:", err)
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ddserve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("ddserve: drained, bye")
}
