// Command cobrad serves the COBRA optimization framework over HTTP:
// clients POST optimization-session requests (workload, machine model,
// strategy, thread count), cobrad runs each as a cancellable session on
// a shared scheduler pool — cloning the compiled workload image from a
// build cache so concurrent sessions share no mutable state — and serves
// results, live progress and observability artifacts as JSON.
//
// Endpoints:
//
//	GET  /healthz                          liveness (ok | draining)
//	GET  /metricsz                         service metrics registry dump
//	GET  /eventsz                          server-wide SSE stream: session
//	                                       state changes, queue depth,
//	                                       serve.* counter deltas
//	POST /sessions                         submit a session (Spec JSON)
//	GET  /sessions[?state=S]               list sessions (submission order)
//	GET  /sessions/{id}                    session status + live progress
//	GET  /sessions/{id}/result             bare measurement JSON
//	GET  /sessions/{id}/events             live SSE stream (artifacts.events):
//	                                       per-window IPC, metric deltas,
//	                                       patch-lifecycle decisions;
//	                                       resumable via Last-Event-ID
//	POST /sessions/{id}/cancel             cancel (also DELETE /sessions/{id})
//	GET  /sessions/{id}/artifacts/{kind}   trace | metrics | decisions
//
// A full queue answers 429 with Retry-After; SIGINT/SIGTERM drains
// running sessions (persisting their ledger entries) before exiting, and
// force-cancels only when -drain-timeout expires.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cobrad: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:8321", "listen address")
		workers     = flag.Int("workers", 0, "session worker-pool size (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "queued-session bound (0 = 2x workers); full queue answers 429")
		timeout     = flag.Duration("timeout", 2*time.Minute, "default per-session timeout")
		maxTimeout  = flag.Duration("max-timeout", 10*time.Minute, "largest per-session timeout a request may ask for")
		ledgerDir   = flag.String("ledger-dir", "", "run ledger directory shared with cobra-run -incremental (empty = none)")
		maxSessions = flag.Int("max-sessions", 0, "retained session records (0 = 1024); oldest finished evicted first")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline before in-flight sessions are force-cancelled")
		streamSubs  = flag.Int("stream-subs", 0, "max concurrent SSE subscribers per event stream (0 = 32); excess answered 429")
	)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		LedgerDir:         *ledgerDir,
		MaxSessions:       *maxSessions,
		StreamSubscribers: *streamSubs,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (workers=%d queue=%d ledger=%q)", *addr, *workers, *queue, *ledgerDir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately

	log.Printf("signal received; draining sessions (deadline %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("drain deadline expired; in-flight sessions were cancelled: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed
}
