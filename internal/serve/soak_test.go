package serve

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSoak drives an in-process cobrad with concurrent clients for a
// wall-clock duration, mixing short sessions, ledger hits, cancellations
// and rejected submissions, then checks the service's accounting
// invariants. It is the `make soak-smoke` payload and is skipped unless
// COBRAD_SOAK is set to a duration (e.g. COBRAD_SOAK=30s).
//
// Methodology (documented in EXPERIMENTS.md): the point of the soak is
// not throughput — it is that under sustained concurrent load with
// deliberate cancellations and backpressure, (a) every submitted session
// reaches exactly one terminal state, (b) the session ledger only ever
// records completed runs, (c) no worker panics, and (d) the retained
// session store stays bounded. Run it under -race to turn the same load
// into a data-race probe.
//
// The telemetry plane soaks alongside: background scrapers hammer
// /metricsz, followers tail /eventsz for the whole run, and sessions
// submitted with artifacts.events=true get their SSE stream followed to
// completion — every followed stream must deliver strictly monotone ids
// with zero drops (the event volume sits far below the subscriber
// buffer bound) and end with the end marker.
func TestSoak(t *testing.T) {
	durStr := os.Getenv("COBRAD_SOAK")
	if durStr == "" {
		t.Skip("set COBRAD_SOAK=30s to run the soak test (see `make soak-smoke`)")
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		t.Fatalf("bad COBRAD_SOAK duration %q: %v", durStr, err)
	}

	srv, ts := newTestServer(t, Config{
		Workers:     4,
		QueueDepth:  8,
		LedgerDir:   t.TempDir(),
		MaxSessions: 64,
		Logf:        t.Logf,
	})

	// A small rotation of specs: repeats hit the ledger, distinct sizes
	// exercise the build cache, and the adaptive entry exercises COBRA.
	// The fifth entry duplicates the second, so two rotation slots race
	// on one ledger key.
	specs := []map[string]any{
		{"workload": "daxpy", "threads": 1, "daxpy_ws": 8 << 10, "daxpy_reps": 3},
		{"workload": "daxpy", "threads": 2, "daxpy_ws": 16 << 10, "daxpy_reps": 3},
		{"workload": "daxpy", "threads": 4, "daxpy_ws": 32 << 10, "daxpy_reps": 2,
			"strategy": "adaptive", "artifacts": map[string]bool{"metrics": true, "events": true}},
		{"workload": "daxpy", "threads": 2, "daxpy_ws": 24 << 10, "daxpy_reps": 2},
		{"workload": "daxpy", "threads": 2, "daxpy_ws": 16 << 10, "daxpy_reps": 3},
		// Scenario-matrix cells: an irregular workload on an asymmetric
		// topology under each non-default placement policy, plus one
		// mid-run migration — the declarative machine-shape plane under
		// sustained concurrent load.
		{"workload": "hashjoin", "threads": 2, "machine": "numa",
			"topology": []map[string]any{{"cpus": 1}, {"cpus": 2}}, "placement": "interleave"},
		{"workload": "spmv", "threads": 2, "machine": "numa",
			"topology": []map[string]any{{"cpus": 2}, {"cpus": 1}}, "placement": "bind", "bind_node": 1},
		{"workload": "pointerchase", "threads": 2, "machine": "numa",
			"migrate_at": 50_000, "migrate_cpu": 0, "migrate_node": 0},
	}

	const (
		clients  = 6
		scrapers = 3 // background /metricsz readers
		tailers  = 2 // background /eventsz stream followers
	)
	deadline := time.Now().Add(dur)
	var submitted, rejected, cancelledByUs, streamedEvents atomic.Int64

	// auditStream checks the telemetry contract on one followed stream:
	// strictly monotone ids and no drop gaps (event volume is far below
	// the subscriber buffer bound, so any gap is a bug, not load).
	auditStream := func(who string, events []sseEvent, comments []string) {
		var last int64
		for _, ev := range events {
			if ev.id <= last {
				t.Errorf("%s: id %d after %d — not strictly monotone", who, ev.id, last)
				return
			}
			last = ev.id
		}
		for _, c := range comments {
			if strings.Contains(c, "gap") {
				t.Errorf("%s: dropped events below the buffer bound: %s", who, c)
			}
		}
		streamedEvents.Add(int64(len(events)))
	}

	// Background load on the telemetry plane for the whole soak.
	bgCtx, stopBG := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for bgCtx.Err() == nil {
				r, err := http.Get(ts.URL + "/metricsz")
				if err == nil {
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	for i := 0; i < tailers; i++ {
		bg.Add(1)
		go func(i int) {
			defer bg.Done()
			req, err := http.NewRequestWithContext(bgCtx, http.MethodGet, ts.URL+"/eventsz", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // soak ended before the stream opened
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("eventsz tailer %d: status %d", i, resp.StatusCode)
				return
			}
			// Reads until ctx cancellation severs the connection.
			events, comments := readSSE(t, resp.Body, nil)
			auditStream("eventsz tailer", events, comments)
		}(i)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; time.Now().Before(deadline); iter++ {
				// Every 7th iteration per client submits a session that would
				// run for minutes and cancels it mid-flight — the interrupt
				// poll must stop it promptly and keep it out of the ledger.
				cancelIter := iter%7 == 3
				specIdx := (c + iter) % len(specs)
				body := specs[specIdx]
				followStream := !cancelIter && specIdx == 2 // the events-enabled spec
				if cancelIter {
					body = longSpec()
				}
				resp := postJSON(t, ts.URL+"/sessions", body)
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					rejected.Add(1)
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusAccepted {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("client %d: submit status %d: %s", c, resp.StatusCode, b)
					return
				}
				info := decodeBody[SessionInfo](t, resp)
				submitted.Add(1)
				if cancelIter {
					r := postJSON(t, ts.URL+"/sessions/"+info.ID+"/cancel", nil)
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					cancelledByUs.Add(1)
				}
				if followStream {
					// Follow the session's SSE stream to its end marker; the
					// server closes the connection when the session bus drains.
					r, err := http.Get(ts.URL + "/sessions/" + info.ID + "/events")
					if err != nil {
						t.Errorf("client %d: follow %s: %v", c, info.ID, err)
						return
					}
					if r.StatusCode != http.StatusOK {
						b, _ := io.ReadAll(r.Body)
						r.Body.Close()
						t.Errorf("client %d: follow %s: status %d: %s", c, info.ID, r.StatusCode, b)
						return
					}
					events, comments := readSSE(t, r.Body, nil)
					r.Body.Close()
					if len(events) == 0 || events[len(events)-1].kind != obs.KindEnd {
						t.Errorf("client %d: session %s stream did not end with the end marker (%d events)",
							c, info.ID, len(events))
					}
					auditStream("session follower", events, comments)
				}
				done := waitTerminal(t, ts.URL, info.ID)
				if done.State == StateFailed {
					t.Errorf("client %d: session %s failed: %s", c, info.ID, done.Error)
					return
				}
				// Occasionally read the service metrics mid-flight — the
				// endpoint shares the registry with worker goroutines.
				if iter%11 == 5 {
					r, err := http.Get(ts.URL + "/metricsz")
					if err == nil {
						io.Copy(io.Discard, r.Body)
						r.Body.Close()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	stopBG()
	bg.Wait()

	// Drain and audit: the terminal-state counters must account for every
	// submitted session exactly once, with no panics.
	if err := srv.Shutdown(contextWithTimeout(t, 60*time.Second)); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeBody[obs.Dump](t, resp)
	cnt := dump.Counters
	total := cnt["serve.completed"] + cnt["serve.failed"] + cnt["serve.cancelled"]
	if cnt["serve.submitted"] != submitted.Load() {
		t.Errorf("server saw %d submissions, clients made %d", cnt["serve.submitted"], submitted.Load())
	}
	if total != cnt["serve.submitted"] {
		t.Errorf("terminal states %d != submitted %d: a session leaked or double-finished (counters %v)",
			total, cnt["serve.submitted"], cnt)
	}
	if cnt["serve.panics"] != 0 {
		t.Errorf("%d worker panics during soak", cnt["serve.panics"])
	}
	if cnt["serve.failed"] != 0 {
		t.Errorf("%d failed sessions during soak (counters %v)", cnt["serve.failed"], cnt)
	}
	if n, err := srv.Ledger().Len(); err != nil || n == 0 || n > len(specs) {
		t.Errorf("ledger has %d entries (err %v), want 1..%d (one per distinct spec that completed)",
			n, err, len(specs))
	}
	t.Logf("soak: %s, %d clients: submitted=%d completed=%d cancelled=%d (client-cancels=%d) rejected429=%d ledger_hits=%d streamed_events=%d",
		dur, clients, cnt["serve.submitted"], cnt["serve.completed"], cnt["serve.cancelled"],
		cancelledByUs.Load(), rejected.Load(), cnt["serve.ledger_hits"], streamedEvents.Load())
}
