// Command frontier-serve runs the simulator as shared infrastructure: a
// long-running HTTP/JSON campaign service over the experiment registry.
// Submit (machine | inline spec, seed, experiment) jobs, stream their
// progress, or fan a sweep of machine.Spec what-if variants across the
// worker pool. Every result is memoized in a content-addressed cache —
// keyed by SHA-256 of (canonical spec JSON, seed, experiment id, code
// version) — with request coalescing, so N identical submissions cost
// one simulation and repeat askers get byte-identical bodies marked
// "X-Cache: hit".
//
// Usage:
//
//	frontier-serve -addr :8080
//	frontier-serve -addr :8080 -jobs 4 -cache-bytes 268435456 -cache-dir /var/cache/frontier
//
//	curl -s localhost:8080/v1/experiments
//	curl -s -d '{"experiment":"fig6","machine":"frontier","seed":42,"quick":true}' localhost:8080/v1/run
//	curl -s -d '{"experiment":"fig6","quick":true,"sweep":"linkRate: 1.25e10..2.5e10 step 6.25e9"}' localhost:8080/v1/sweep
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
	"runtime"
	"time"

	"frontiersim/internal/campaign"
)

// Connection deadlines. A request body is at most 1 MiB, so a client
// that needs longer than readTimeout to send one is stalling the
// connection; idleTimeout reclaims keep-alive connections nobody reuses.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max simulations running concurrently")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes (0 = unbounded); the solver solution cache has a fixed 256 MiB cap")
	cacheDir := flag.String("cache-dir", "", "persist results to this directory (survives restarts; empty = memory only)")
	maxSweep := flag.Int("max-sweep", 256, "max variants in one sweep request")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "frontier-serve: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	srv, err := campaign.New(campaign.Config{
		Jobs:             *jobs,
		CacheBytes:       *cacheBytes,
		CacheDir:         *cacheDir,
		MaxSweepVariants: *maxSweep,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-serve:", err)
		return 1
	}
	// No WriteTimeout: an SSE progress stream and a synchronous /v1/run
	// legitimately stay open for as long as their simulation runs, so no
	// fixed write deadline fits them.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "frontier-serve: listening on http://%s (jobs=%d, cache=%dB, dir=%q)\n",
		ln.Addr(), *jobs, *cacheBytes, *cacheDir)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "frontier-serve:", err)
			return 1
		}
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "frontier-serve: shutdown:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "frontier-serve: drained, bye")
	}
	return 0
}
