package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// newTestServer starts a Server behind an httptest listener. The server
// is drained at test end (with a generous deadline) so no simulation
// goroutines outlive the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.cancelLive() // tests may leave long sessions running deliberately
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// shortSpec is a session that finishes in well under a second.
func shortSpec() map[string]any {
	return map[string]any{
		"workload":   "daxpy",
		"threads":    2,
		"daxpy_ws":   8 << 10,
		"daxpy_reps": 3,
	}
}

// longSpec is a session that runs for many seconds unless cancelled —
// the interrupt poll (every ~50k instructions) stops it promptly.
func longSpec() map[string]any {
	return map[string]any{
		"workload":   "daxpy",
		"threads":    2,
		"daxpy_ws":   4 << 20,
		"daxpy_reps": 50_000,
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatalf("encode: %v", err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s response: %v", resp.Request.URL, err)
	}
	return v
}

// submit POSTs a session and requires 202.
func submit(t *testing.T, base string, body any) SessionInfo {
	t.Helper()
	resp := postJSON(t, base+"/sessions", body)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, b)
	}
	return decodeBody[SessionInfo](t, resp)
}

func getInfo(t *testing.T, base, id string) SessionInfo {
	t.Helper()
	resp, err := http.Get(base + "/sessions/" + id)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET session %s: status %d, body %s", id, resp.StatusCode, b)
	}
	return decodeBody[SessionInfo](t, resp)
}

// waitFor polls the session until pred holds or the deadline passes.
func waitFor(t *testing.T, base, id string, pred func(SessionInfo) bool, what string) SessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := getInfo(t, base, id)
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s: timed out waiting for %s (state %s, err %q)", id, what, info.State, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, base, id string) SessionInfo {
	t.Helper()
	return waitFor(t, base, id, func(i SessionInfo) bool { return i.State.Terminal() }, "terminal state")
}

// TestSessionLifecycle walks one session through the full API surface:
// submit, poll to completion, result document, all three artifacts,
// service metrics.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := shortSpec()
	body["strategy"] = "adaptive"
	body["artifacts"] = map[string]bool{"trace": true, "metrics": true, "decisions": true}

	info := submit(t, ts.URL, body)
	if info.ID == "" || info.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", info)
	}
	if info.Name != "daxpy/t=2/smp/adaptive" {
		t.Fatalf("name = %q", info.Name)
	}

	done := waitTerminal(t, ts.URL, info.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Cycles <= 0 {
		t.Fatalf("missing result: %+v", done.Result)
	}
	if done.ProgressCycles != done.Result.Cycles {
		t.Errorf("final progress %d != result cycles %d", done.ProgressCycles, done.Result.Cycles)
	}
	if done.StartedAt == "" || done.DoneAt == "" {
		t.Errorf("missing timestamps: started=%q done=%q", done.StartedAt, done.DoneAt)
	}

	// Result endpoint serves the bare measurement.
	resp, err := http.Get(ts.URL + "/sessions/" + info.ID + "/result")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %v status %d", err, resp.StatusCode)
	}
	meas := decodeBody[workload.Measurement](t, resp)
	if meas.Cycles != done.Result.Cycles {
		t.Fatalf("result endpoint cycles %d != session %d", meas.Cycles, done.Result.Cycles)
	}

	// Artifacts: trace and metrics are JSON documents, decisions is text.
	for _, kind := range []string{"trace", "metrics", "decisions"} {
		resp, err := http.Get(ts.URL + "/sessions/" + info.ID + "/artifacts/" + kind)
		if err != nil {
			t.Fatalf("GET artifact %s: %v", kind, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status %d, body %s", kind, resp.StatusCode, b)
		}
		if len(b) == 0 {
			t.Fatalf("artifact %s: empty body", kind)
		}
		if kind != "decisions" && !json.Valid(b) {
			t.Fatalf("artifact %s: invalid JSON", kind)
		}
	}
	resp, err = http.Get(ts.URL + "/sessions/" + info.ID + "/artifacts/bogus")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus artifact: %v status %d, want 404", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Listing contains the session (without the heavy result payload).
	resp, err = http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatalf("GET sessions: %v", err)
	}
	list := decodeBody[struct {
		Sessions []SessionInfo `json:"sessions"`
	}](t, resp)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != info.ID || list.Sessions[0].Result != nil {
		t.Fatalf("listing = %+v", list.Sessions)
	}

	// Service metrics reflect the completed session.
	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET metricsz: %v", err)
	}
	dump := decodeBody[obs.Dump](t, resp)
	if dump.Counters["serve.submitted"] != 1 || dump.Counters["serve.completed"] != 1 {
		t.Fatalf("metrics counters = %v", dump.Counters)
	}
}

// TestSessionMatchesBatchPath is the core acceptance test: a session run
// through the service produces byte-identical result and artifact
// documents to the equivalent batch (cobra-run) invocation, which builds
// its job through the same Spec.
func TestSessionMatchesBatchPath(t *testing.T) {
	spec := Spec{Workload: "daxpy", Threads: 4, Machine: "smp", Strategy: "adaptive",
		DaxpyWS: 64 << 10, DaxpyReps: 50}
	spec.Normalize()

	// Batch path: exactly what cmd/cobra-run does with the same flags.
	batchObs := obs.New(obs.Config{Trace: true, Metrics: true, Decisions: true})
	inst, err := spec.Instantiate(nil, batchObs)
	if err != nil {
		t.Fatalf("batch instantiate: %v", err)
	}
	batchMeas, err := inst.Measure()
	if err != nil {
		t.Fatalf("batch measure: %v", err)
	}
	var batchResult bytes.Buffer
	enc := json.NewEncoder(&batchResult)
	enc.SetIndent("", "  ")
	if err := enc.Encode(batchMeas); err != nil {
		t.Fatal(err)
	}
	var batchTrace, batchMetrics, batchDecisions bytes.Buffer
	if err := batchObs.Trace().WriteJSON(&batchTrace); err != nil {
		t.Fatal(err)
	}
	if err := batchObs.Metrics().WriteJSON(&batchMetrics); err != nil {
		t.Fatal(err)
	}
	if err := batchObs.Decisions().Explain(&batchDecisions); err != nil {
		t.Fatal(err)
	}

	// Service path: same spec over HTTP.
	_, ts := newTestServer(t, Config{Workers: 2})
	info := submit(t, ts.URL, map[string]any{
		"workload": spec.Workload, "threads": spec.Threads, "strategy": spec.Strategy,
		"daxpy_ws": spec.DaxpyWS, "daxpy_reps": spec.DaxpyReps,
		"artifacts": map[string]bool{"trace": true, "metrics": true, "decisions": true},
	})
	wantKey, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if info.Key != wantKey {
		t.Fatalf("session key %s != batch job key %s — ledger namespaces diverged", info.Key, wantKey)
	}
	done := waitTerminal(t, ts.URL, info.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q)", done.State, done.Error)
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v status %d", path, err, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return b
	}
	if got := get("/sessions/" + info.ID + "/result"); !bytes.Equal(got, batchResult.Bytes()) {
		t.Errorf("result document differs from batch path:\nservice: %s\nbatch:   %s", got, batchResult.Bytes())
	}
	if got := get("/sessions/" + info.ID + "/artifacts/trace"); !bytes.Equal(got, batchTrace.Bytes()) {
		t.Errorf("trace artifact differs from batch path (%d vs %d bytes)", len(got), batchTrace.Len())
	}
	if got := get("/sessions/" + info.ID + "/artifacts/metrics"); !bytes.Equal(got, batchMetrics.Bytes()) {
		t.Errorf("metrics artifact differs from batch path:\nservice: %s\nbatch:   %s", got, batchMetrics.Bytes())
	}
	if got := get("/sessions/" + info.ID + "/artifacts/decisions"); !bytes.Equal(got, batchDecisions.Bytes()) {
		t.Errorf("decision report differs from batch path (%d vs %d bytes)", len(got), batchDecisions.Len())
	}
}

// TestConcurrentClients hammers the server with parallel clients running
// distinct configurations; every session must complete with a result.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := map[string]any{
				"workload":   "daxpy",
				"threads":    1 + i%4,
				"daxpy_ws":   int64(8<<10) + int64(i)*1024,
				"daxpy_reps": 3,
			}
			resp := postJSON(t, ts.URL+"/sessions", body)
			if resp.StatusCode != http.StatusAccepted {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				errs <- fmt.Errorf("client %d: submit status %d: %s", i, resp.StatusCode, b)
				return
			}
			info := decodeBody[SessionInfo](t, resp)
			done := waitTerminal(t, ts.URL, info.ID)
			if done.State != StateDone || done.Result == nil {
				errs <- fmt.Errorf("client %d: state %s err %q", i, done.State, done.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBackpressureFullQueue fills the worker and the queue with
// long-running sessions; the next submission must get 429 + Retry-After
// rather than queueing unboundedly.
func TestBackpressureFullQueue(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	running := submit(t, ts.URL, longSpec())
	waitFor(t, ts.URL, running.ID, func(i SessionInfo) bool { return i.State == StateRunning }, "running")
	queued := submit(t, ts.URL, longSpec())

	resp := postJSON(t, ts.URL+"/sessions", longSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	body := decodeBody[errorBody](t, resp)
	if !strings.Contains(body.Error, "queue full") {
		t.Fatalf("429 body = %q", body.Error)
	}

	// Live progress is observable while the first session runs.
	waitFor(t, ts.URL, running.ID, func(i SessionInfo) bool { return i.ProgressCycles > 0 }, "progress")

	// Cancel both; the rejected one left no record behind.
	for _, id := range []string{running.ID, queued.ID} {
		resp := postJSON(t, ts.URL+"/sessions/"+id+"/cancel", nil)
		resp.Body.Close()
		info := waitTerminal(t, ts.URL, id)
		if info.State != StateCancelled {
			t.Errorf("session %s: state %s, want cancelled", id, info.State)
		}
	}
}

// TestCancelMidRun cancels a session mid-simulation and proves the
// ledger never records it.
func TestCancelMidRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, LedgerDir: t.TempDir()})

	info := submit(t, ts.URL, longSpec())
	waitFor(t, ts.URL, info.ID, func(i SessionInfo) bool { return i.State == StateRunning && i.ProgressCycles > 0 }, "running with progress")

	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(resp)
	if err != nil || r.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %v status %d", err, r.StatusCode)
	}
	r.Body.Close()

	done := waitTerminal(t, ts.URL, info.ID)
	if done.State != StateCancelled {
		t.Fatalf("state = %s (err %q), want cancelled", done.State, done.Error)
	}
	if n, err := srv.Ledger().Len(); err != nil || n != 0 {
		t.Fatalf("ledger has %d entries (err %v) after cancelled session, want 0", n, err)
	}
	// The result endpoint reports the cancellation, not a result.
	rr, err := http.Get(ts.URL + "/sessions/" + info.ID + "/result")
	if err != nil || rr.StatusCode != http.StatusConflict {
		t.Fatalf("GET result of cancelled session: %v status %d, want 409", err, rr.StatusCode)
	}
	rr.Body.Close()
}

// TestCancelQueuedSession cancels a session that never started; it must
// reach cancelled without ever running.
func TestCancelQueuedSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	blocker := submit(t, ts.URL, longSpec())
	waitFor(t, ts.URL, blocker.ID, func(i SessionInfo) bool { return i.State == StateRunning }, "running")

	queued := submit(t, ts.URL, shortSpec())
	resp := postJSON(t, ts.URL+"/sessions/"+queued.ID+"/cancel", nil)
	resp.Body.Close()
	done := waitTerminal(t, ts.URL, queued.ID)
	if done.State != StateCancelled {
		t.Fatalf("queued session state = %s, want cancelled", done.State)
	}
	if done.StartedAt != "" {
		t.Fatalf("cancelled-while-queued session has StartedAt=%q, want never started", done.StartedAt)
	}

	resp = postJSON(t, ts.URL+"/sessions/"+blocker.ID+"/cancel", nil)
	resp.Body.Close()
	waitTerminal(t, ts.URL, blocker.ID)
}

// TestSessionTimeout submits a long session with a tiny timeout; it must
// fail with a timeout error rather than run forever.
func TestSessionTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := longSpec()
	body["timeout_ms"] = 100
	info := submit(t, ts.URL, body)
	done := waitTerminal(t, ts.URL, info.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "timeout") {
		t.Fatalf("state = %s err %q, want failed with timeout", done.State, done.Error)
	}
}

// TestRequestValidation exercises the 400 paths: malformed body, unknown
// fields, out-of-range specs. Nothing is admitted.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"workload": `},
		{"unknown field", `{"workload": "daxpy", "wrokload": "typo"}`},
		{"removed sim_workers field", `{"workload": "daxpy", "sim_workers": 2}`},
		{"unknown workload", `{"workload": "quicksort"}`},
		{"threads too high", `{"workload": "daxpy", "threads": 64}`},
		{"negative threads", `{"workload": "daxpy", "threads": -1}`},
		{"ws too large", `{"workload": "daxpy", "daxpy_ws": 1073741824}`},
		{"ws misaligned", `{"workload": "daxpy", "daxpy_ws": 8193}`},
		{"bad strategy", `{"workload": "daxpy", "strategy": "yolo"}`},
		{"bad machine", `{"workload": "daxpy", "machine": "tpu"}`},
		{"timeout too large", `{"workload": "daxpy", "timeout_ms": 86400000}`},
		{"negative timeout", `{"workload": "daxpy", "timeout_ms": -5}`},
		{"topology on smp", `{"workload": "daxpy", "topology": [{"cpus": 2}, {"cpus": 2}]}`},
		{"topology zero-cpu node", `{"workload": "daxpy", "machine": "numa", "threads": 2, "topology": [{"cpus": 2}, {"cpus": 0}]}`},
		{"topology too few cpus", `{"workload": "daxpy", "machine": "numa", "threads": 4, "topology": [{"cpus": 1}, {"cpus": 1}]}`},
		{"topology too many cpus", `{"workload": "daxpy", "machine": "numa", "threads": 4, "topology": [{"cpus": 63}, {"cpus": 63}]}`},
		{"topology cpus wrap", `{"workload": "daxpy", "machine": "numa", "threads": 4, "topology": [{"cpus": 4611686018427387904}, {"cpus": 4611686018427387904}, {"cpus": 4611686018427387904}, {"cpus": 4611686018427387908}]}`},
		{"capacity overflow", `{"workload": "daxpy", "machine": "numa", "threads": 2, "topology": [{"cpus": 1, "mem_mb": 4}, {"cpus": 1, "mem_mb": 4}]}`},
		{"mem_mb wraps to unbounded", `{"workload": "daxpy", "machine": "numa", "threads": 2, "topology": [{"cpus": 1}, {"cpus": 1, "mem_mb": 17592186044416}]}`},
		{"mem_mb wraps to 1 MiB", `{"workload": "daxpy", "machine": "numa", "threads": 2, "topology": [{"cpus": 1}, {"cpus": 1, "mem_mb": 17592186044417}]}`},
		{"unknown placement", `{"workload": "daxpy", "machine": "numa", "placement": "random"}`},
		{"placement on smp", `{"workload": "daxpy", "placement": "interleave"}`},
		{"bind node out of range", `{"workload": "daxpy", "machine": "numa", "placement": "bind", "bind_node": 9}`},
		{"bind node without bind", `{"workload": "daxpy", "machine": "numa", "bind_node": 1}`},
		{"affinity wrong length", `{"workload": "daxpy", "threads": 2, "affinity": [0]}`},
		{"affinity duplicate cpu", `{"workload": "daxpy", "threads": 2, "affinity": [1, 1]}`},
		{"affinity cpu out of range", `{"workload": "daxpy", "threads": 2, "affinity": [0, 7]}`},
		{"migration on smp", `{"workload": "daxpy", "migrate_at": 100, "migrate_cpu": 0, "migrate_node": 0}`},
		{"migration cpu out of range", `{"workload": "daxpy", "machine": "numa", "threads": 2, "migrate_at": 100, "migrate_cpu": 5, "migrate_node": 0}`},
		{"migration without cycle", `{"workload": "daxpy", "machine": "numa", "migrate_cpu": 1}`},
	}
	// Rejections whose message must name the offending field.
	names := map[string]string{
		"unknown field":             `unknown field "wrokload"`,
		"removed sim_workers field": `unknown field "sim_workers"`,
		"mem_mb wraps to unbounded": "topology node 1 has mem_mb 17592186044416",
		"mem_mb wraps to 1 MiB":     "topology node 1 has mem_mb 17592186044417",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status %d, body %s, want 400", resp.StatusCode, b)
			}
			e := decodeBody[errorBody](t, resp)
			if want := names[tc.name]; !strings.Contains(e.Error, want) {
				t.Fatalf("error %q does not name the field (want %q)", e.Error, want)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Sessions []SessionInfo `json:"sessions"`
	}](t, resp)
	if len(list.Sessions) != 0 {
		t.Fatalf("rejected submissions left %d session records", len(list.Sessions))
	}
}

// TestShutdownDrains submits k sessions, immediately begins shutdown,
// and requires every session to reach done with its ledger entry
// persisted — the SIGTERM drain guarantee.
func TestShutdownDrains(t *testing.T) {
	ledgerDir := t.TempDir()
	srv, err := New(Config{Workers: 2, QueueDepth: 8, LedgerDir: ledgerDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const k = 3
	ids := make([]string, k)
	for i := range ids {
		body := shortSpec()
		body["daxpy_ws"] = int64(16<<10) + int64(i)*1024 // distinct keys
		ids[i] = submit(t, ts.URL, body).ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Post-drain: all k sessions done, ledger persisted, intake closed.
	for _, id := range ids {
		info := getInfo(t, ts.URL, id)
		if info.State != StateDone {
			t.Errorf("session %s after drain: state %s (err %q), want done", id, info.State, info.Error)
		}
	}
	if n, err := srv.Ledger().Len(); err != nil || n != k {
		t.Errorf("ledger has %d entries (err %v) after drain, want %d", n, err, k)
	}
	resp := postJSON(t, ts.URL+"/sessions", shortSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancelsInFlight proves the other half of the drain
// contract: when the deadline expires first, in-flight sessions are
// force-cancelled and still reach a terminal state.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	srv, err := New(Config{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info := submit(t, ts.URL, longSpec())
	waitFor(t, ts.URL, info.ID, func(i SessionInfo) bool { return i.State == StateRunning }, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil; expected deadline error with a long session in flight")
	}
	if got := getInfo(t, ts.URL, info.ID); got.State != StateCancelled {
		t.Fatalf("in-flight session after forced drain: state %s, want cancelled", got.State)
	}
}

// TestLedgerHitAnswersRepeatSession proves service sessions share the
// batch ledger namespace: the second identical session is answered from
// the ledger without re-executing.
func TestLedgerHitAnswersRepeatSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, LedgerDir: t.TempDir()})
	first := submit(t, ts.URL, shortSpec())
	done := waitTerminal(t, ts.URL, first.ID)
	if done.State != StateDone || done.Cached {
		t.Fatalf("first run: state %s cached %v", done.State, done.Cached)
	}

	second := submit(t, ts.URL, shortSpec())
	redone := waitTerminal(t, ts.URL, second.ID)
	if redone.State != StateDone || !redone.Cached {
		t.Fatalf("second run: state %s cached %v, want done from ledger", redone.State, redone.Cached)
	}
	if redone.Result == nil || redone.Result.Cycles != done.Result.Cycles {
		t.Fatalf("ledger-served result differs: %+v vs %+v", redone.Result, done.Result)
	}
	// Artifacts exist only for executed sessions.
	resp, err := http.Get(ts.URL + "/sessions/" + second.ID + "/artifacts/trace")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("artifact of ledger-served session: %v status %d, want 404", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestNoLedgerReexecutesRepeatSession: a server without a ledger has
// nothing to answer a repeat from, not even the scheduler's memory of
// ledger values, so an identical second session executes again.
func TestNoLedgerReexecutesRepeatSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 1; i <= 2; i++ {
		info := waitTerminal(t, ts.URL, submit(t, ts.URL, shortSpec()).ID)
		if info.State != StateDone || info.Cached || info.StartedAt == "" {
			t.Fatalf("run %d: state %s cached %v started %q, want an executed session", i, info.State, info.Cached, info.StartedAt)
		}
	}
}

// TestSessionRetentionEviction bounds the retained-session map: old
// finished sessions are evicted, and a store full of live sessions
// rejects with 429.
func TestSessionRetentionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxSessions: 2})

	a := submit(t, ts.URL, shortSpec())
	waitTerminal(t, ts.URL, a.ID)
	b := submit(t, ts.URL, shortSpec())
	waitTerminal(t, ts.URL, b.ID)

	// Third submission evicts the oldest finished record (a).
	c := submit(t, ts.URL, shortSpec())
	waitTerminal(t, ts.URL, c.ID)
	resp, err := http.Get(ts.URL + "/sessions/" + a.ID)
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session: %v status %d, want 404", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Fill the store with live sessions: further submissions get 429.
	d := submit(t, ts.URL, longSpec())
	e := submit(t, ts.URL, longSpec())
	resp = postJSON(t, ts.URL+"/sessions", longSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit into full live store: status %d body %s, want 429", resp.StatusCode, b)
	}
	resp.Body.Close()
	for _, id := range []string{d.ID, e.ID} {
		r := postJSON(t, ts.URL+"/sessions/"+id+"/cancel", nil)
		r.Body.Close()
		waitTerminal(t, ts.URL, id)
	}
}

// TestListFilterAndSort: GET /sessions?state=S returns only matching
// sessions, the listing is stable-sorted by submission time, and an
// unknown state filter is a 400.
func TestListFilterAndSort(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	list := func(query string) []SessionInfo {
		resp, err := http.Get(ts.URL + "/sessions" + query)
		if err != nil {
			t.Fatalf("GET /sessions%s: %v", query, err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("GET /sessions%s: status %d, body %s", query, resp.StatusCode, b)
		}
		return decodeBody[struct {
			Sessions []SessionInfo `json:"sessions"`
		}](t, resp).Sessions
	}
	ids := func(infos []SessionInfo) []string {
		out := make([]string, len(infos))
		for i, s := range infos {
			out[i] = s.ID
		}
		return out
	}

	// One runner occupying the single worker, two queued behind it.
	runner := submit(t, ts.URL, longSpec())
	waitFor(t, ts.URL, runner.ID, func(i SessionInfo) bool { return i.State == StateRunning }, "running")
	q1 := submit(t, ts.URL, shortSpec())
	spec2 := shortSpec()
	spec2["threads"] = 3
	q2 := submit(t, ts.URL, spec2)

	if got := ids(list("?state=running")); len(got) != 1 || got[0] != runner.ID {
		t.Fatalf("running filter = %v", got)
	}
	queued := ids(list("?state=queued"))
	if len(queued) != 2 || queued[0] != q1.ID || queued[1] != q2.ID {
		t.Fatalf("queued filter = %v, want [%s %s] in submission order", queued, q1.ID, q2.ID)
	}
	if all := ids(list("")); len(all) != 3 || all[0] != runner.ID || all[1] != q1.ID || all[2] != q2.ID {
		t.Fatalf("unfiltered listing = %v, want submission order", all)
	}

	resp, err := http.Get(ts.URL + "/sessions?state=bogus")
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus filter: %v status %d, want 400", err, resp.StatusCode)
	}
	body := decodeBody[errorBody](t, resp)
	if !strings.Contains(body.Error, "queued") {
		t.Fatalf("400 body does not list valid states: %q", body.Error)
	}

	// Drive everything terminal and check the terminal filters.
	cancel := postJSON(t, ts.URL+"/sessions/"+runner.ID+"/cancel", nil)
	cancel.Body.Close()
	for _, id := range []string{runner.ID, q1.ID, q2.ID} {
		waitTerminal(t, ts.URL, id)
	}
	if got := ids(list("?state=cancelled")); len(got) != 1 || got[0] != runner.ID {
		t.Fatalf("cancelled filter = %v", got)
	}
	done := ids(list("?state=done"))
	if len(done) != 2 || done[0] != q1.ID || done[1] != q2.ID {
		t.Fatalf("done filter = %v, want [%s %s]", done, q1.ID, q2.ID)
	}
	if got := ids(list("?state=failed")); len(got) != 0 {
		t.Fatalf("failed filter = %v, want empty", got)
	}
}
