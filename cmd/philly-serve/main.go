// Command philly-serve exposes the simulator as a long-lived multi-tenant
// service: an HTTP/JSON API accepting the same study, sweep and federation
// specs the CLIs take, scheduled onto one shared worker budget with
// admission control, per-tenant weighted fairness, progress streaming, and
// a provably-exact result cache.
//
// Usage:
//
//	philly-serve [-addr :8080] [-budget N] [-queue-depth N]
//	             [-cache-entries N] [-tenants name:weight,...]
//	             [-default-weight N] [-retain-jobs N] [-trace-dir DIR]
//
// API (see internal/serve):
//
//	POST   /v1/studies             submit a spec (JSON body; 202 queued,
//	                               200 cache hit, 400 malformed,
//	                               413 body over 1 MiB,
//	                               429 overloaded + Retry-After)
//	GET    /v1/studies/{id}        status
//	GET    /v1/studies/{id}/result completed export JSON
//	GET    /v1/studies/{id}/events SSE progress (?stream=ndjson for lines)
//	DELETE /v1/studies/{id}        cancel
//	GET    /v1/stats               admission/cache/tenant counters
//	GET    /v1/healthz             liveness
//
// The tenant is the X-Philly-Tenant header (or ?tenant=); unlisted
// tenants get -default-weight. -budget is the same worker budget
// philly-sweep's -workers spends, shared by every running study:
// admission guarantees the summed leases never exceed it.
//
// Replay specs may only name relative paths inside -trace-dir (the
// working directory by default); absolute paths and ".." escapes are
// rejected. Terminal jobs stay addressable for -retain-jobs fetches
// before their IDs age out. A study that panics fails only its own job
// ("study panicked: ..."); the stack is logged to stderr with the job ID.
//
// Results are bit-deterministic in the fully-resolved spec, so a cache
// hit is byte-identical to a fresh run — see serve.CanonicalHash.
//
// SIGINT/SIGTERM drain cleanly: new submits fail with 503, queued studies
// finish canceled, running studies stop at their next scenario boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"philly/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot hold a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests, so idle clients cannot pile up open connections.
const idleTimeout = 2 * time.Minute

// weightFlags parses -tenants name:weight[,name:weight...].
type weightFlags map[string]int

func (w weightFlags) String() string {
	parts := make([]string, 0, len(w))
	for name, wt := range w {
		parts = append(parts, fmt.Sprintf("%s:%d", name, wt))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (w weightFlags) Set(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("tenant weight %q: want name:weight", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return fmt.Errorf("tenant weight %q: want a positive int weight", part)
		}
		w[strings.TrimSpace(name)] = n
	}
	return nil
}

func main() {
	weights := weightFlags{}
	addr := flag.String("addr", ":8080", "listen address")
	budget := flag.Int("budget", 0, "shared worker budget for all running studies (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 16, "max queued studies per tenant before 429")
	cacheEntries := flag.Int("cache-entries", 256, "result cache capacity in studies (negative disables)")
	defaultWeight := flag.Int("default-weight", 1, "fair-share weight of tenants not listed in -tenants")
	retainJobs := flag.Int("retain-jobs", 0, "terminal jobs kept addressable before their IDs age out (0 = 1024, negative = unbounded)")
	traceDir := flag.String("trace-dir", "", "directory replay paths in submitted specs are confined to (default: working directory)")
	flag.Var(weights, "tenants", "per-tenant fair-share weights, name:weight[,name:weight...]")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "philly-serve: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	s := serve.New(serve.Config{
		Budget:        *budget,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheEntries,
		Weights:       weights,
		DefaultWeight: *defaultWeight,
		RetainJobs:    *retainJobs,
		TraceDir:      *traceDir,
	})
	// The header read and keep-alive idling are bounded; SSE progress
	// streams and result downloads are long-lived, so the server sets no
	// WriteTimeout.
	hs := &http.Server{Addr: *addr, Handler: s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "philly-serve: listening on %s (budget %d, queue depth %d, cache %d)\n",
		*addr, s.Budget(), *queueDepth, *cacheEntries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "philly-serve: %v\n", err)
		s.Close()
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "philly-serve: %v: draining\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	s.Close()
}
