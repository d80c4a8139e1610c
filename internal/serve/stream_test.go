package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// sseEvent is one parsed text/event-stream record.
type sseEvent struct {
	id   int64
	kind string
	data []byte
}

// busData is the BusEvent envelope carried in every SSE data field,
// with the payload left raw for kind-specific decoding.
type busData struct {
	Seq   int64           `json:"seq"`
	Kind  string          `json:"kind"`
	Cycle int64           `json:"cycle"`
	Data  json.RawMessage `json:"data"`
}

// readSSE parses events off an open stream until EOF (bus closed /
// server evicted us) or stop returns true. Comment lines (keep-alives,
// gap markers) are returned separately.
func readSSE(t *testing.T, body io.Reader, stop func(sseEvent) bool) (events []sseEvent, comments []string) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var cur sseEvent
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 || cur.kind != "" {
				cur.data = append([]byte(nil), data.Bytes()...)
				events = append(events, cur)
				if stop != nil && stop(cur) {
					return events, comments
				}
			}
			cur, data = sseEvent{}, bytes.Buffer{}
		case strings.HasPrefix(line, ":"):
			comments = append(comments, line)
		case strings.HasPrefix(line, "id:"):
			n, err := strconv.ParseInt(strings.TrimSpace(line[3:]), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event:"):
			cur.kind = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[5:]))
		case strings.HasPrefix(line, "retry:"):
			// reconnect hint; nothing to check
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return events, comments
}

// getStream opens an SSE endpoint and requires 200 text/event-stream.
func getStream(t *testing.T, url string, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content-type = %q", ct)
	}
	return resp
}

// checkFinite walks a decoded JSON value and fails on any NaN or Inf —
// the tracecheck-style structural gate for streamed telemetry. (Go's
// encoder rejects them at the source; this guards the contract from the
// consumer side.)
func checkFinite(t *testing.T, v any, path string) {
	t.Helper()
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("non-finite number at %s: %v", path, x)
		}
	case map[string]any:
		for k, e := range x {
			checkFinite(t, e, path+"."+k)
		}
	case []any:
		for i, e := range x {
			checkFinite(t, e, fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// TestStreamEquivalence is the live-telemetry acceptance test: follow a
// phased adaptive session's SSE stream to completion and require that
// the streamed events are a faithful, lossless replay of what the
// post-run artifacts record — decision transitions rebuild the decision
// report byte-for-byte, one window event per pass reproduces the metrics
// artifact's window snapshots, the stream carries nothing else but its
// end marker, and every event is structurally valid JSON with strictly
// monotone ids and finite numbers.
func TestStreamEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	info := submit(t, ts.URL, map[string]any{
		"workload": "phased",
		"threads":  4,
		"strategy": "adaptive",
		// events implies the metrics and decisions surfaces
		"artifacts": map[string]bool{"events": true},
	})

	// Follow the live stream to its end marker; the server closes the
	// connection once the session bus drains.
	resp := getStream(t, ts.URL+"/sessions/"+info.ID+"/events", "")
	defer resp.Body.Close()
	events, _ := readSSE(t, resp.Body, nil)
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}

	var (
		lastID       int64
		decisions    []obs.Decision
		windows      []obs.WindowSnapshot
		deltaSum     = map[string]int64{}
		lastCounters map[string]int64
		end          *EndEvent
	)
	for i, ev := range events {
		if ev.id <= lastID {
			t.Fatalf("event %d: id %d not strictly monotone (prev %d)", i, ev.id, lastID)
		}
		lastID = ev.id
		var bd busData
		if err := json.Unmarshal(ev.data, &bd); err != nil {
			t.Fatalf("event %d: bad data JSON: %v\n%s", i, err, ev.data)
		}
		if bd.Seq != ev.id || bd.Kind != ev.kind {
			t.Fatalf("event %d: envelope (seq=%d kind=%s) disagrees with SSE framing (id=%d event=%s)",
				i, bd.Seq, bd.Kind, ev.id, ev.kind)
		}
		var decoded any
		if err := json.Unmarshal(ev.data, &decoded); err != nil {
			t.Fatal(err)
		}
		checkFinite(t, decoded, ev.kind)

		switch ev.kind {
		case obs.KindWindow:
			var we obs.WindowEvent
			if err := json.Unmarshal(bd.Data, &we); err != nil {
				t.Fatalf("window event: %v", err)
			}
			windows = append(windows, we.WindowSnapshot)
			for k, v := range we.CounterDeltas {
				deltaSum[k] += v
			}
			lastCounters = we.Counters
		case obs.KindDecision:
			var d obs.Decision
			if err := json.Unmarshal(bd.Data, &d); err != nil {
				t.Fatalf("decision event: %v", err)
			}
			decisions = append(decisions, d)
		case obs.KindEnd:
			var e EndEvent
			if err := json.Unmarshal(bd.Data, &e); err != nil {
				t.Fatalf("end event: %v", err)
			}
			end = &e
			if i != len(events)-1 {
				t.Fatalf("end marker at event %d of %d — events after the end", i, len(events))
			}
		default:
			t.Fatalf("event %d: unknown kind %q", i, ev.kind)
		}
	}
	if end == nil || end.State != StateDone {
		t.Fatalf("missing or non-done end marker: %+v", end)
	}
	if len(windows) == 0 {
		t.Fatal("no window events streamed")
	}
	if len(decisions) == 0 {
		t.Fatal("adaptive phased run streamed no patch decisions")
	}

	// The session is terminal (we saw its end event); fetch artifacts.
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v status %d", path, err, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return b
	}

	// Replaying the streamed transitions through a fresh DecisionLog must
	// rebuild the decisions artifact byte-for-byte: Record re-derives Seq
	// and From, so equality proves the stream is complete and in order.
	replay := obs.NewDecisionLog()
	for _, d := range decisions {
		replay.Record(d.Cycle, d.Region, d.Window, d.To, d.Reason, d.Evidence)
	}
	var replayed bytes.Buffer
	if err := replay.Explain(&replayed); err != nil {
		t.Fatal(err)
	}
	if artifact := get("/sessions/" + info.ID + "/artifacts/decisions"); !bytes.Equal(replayed.Bytes(), artifact) {
		t.Errorf("replayed decision report differs from artifact:\nreplayed:\n%s\nartifact:\n%s", replayed.Bytes(), artifact)
	}

	// Streamed window snapshots must equal the metrics artifact's window
	// series (same struct, so marshaling both is a byte-level comparison).
	var dump obs.Dump
	if err := json.Unmarshal(get("/sessions/"+info.ID+"/artifacts/metrics"), &dump); err != nil {
		t.Fatal(err)
	}
	if len(windows) != len(dump.Windows) {
		t.Errorf("streamed %d window events for %d artifact snapshots", len(windows), len(dump.Windows))
	}
	wantWin, _ := json.Marshal(dump.Windows)
	gotWin, _ := json.Marshal(windows)
	if !bytes.Equal(gotWin, wantWin) {
		t.Errorf("streamed windows differ from metrics artifact:\nstreamed: %s\nartifact: %s", gotWin, wantWin)
	}

	// Counter deltas must integrate back to the final snapshot's
	// cumulative counters — no delta lost, none double-counted.
	for k, want := range lastCounters {
		if deltaSum[k] != want {
			t.Errorf("counter %s: delta sum %d != final cumulative %d", k, deltaSum[k], want)
		}
	}
	for k := range deltaSum {
		if _, ok := lastCounters[k]; !ok {
			t.Errorf("counter %s has deltas but no final value", k)
		}
	}
}

// TestStreamResume exercises Last-Event-ID / ?from resumption against a
// completed session: the bus history replays events after the resume
// point, and only those.
func TestStreamResume(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Long enough for several profiling windows, so the history holds a
	// window/decision mix worth resuming into.
	info := submit(t, ts.URL, map[string]any{
		"workload": "daxpy", "threads": 4, "strategy": "adaptive",
		"daxpy_ws": 64 << 10, "daxpy_reps": 50,
		"artifacts": map[string]bool{"events": true},
	})
	waitTerminal(t, ts.URL, info.ID)

	url := ts.URL + "/sessions/" + info.ID + "/events"

	// Full replay from the start.
	resp := getStream(t, url+"?from=0", "")
	all, _ := readSSE(t, resp.Body, nil)
	resp.Body.Close()
	if len(all) < 3 {
		t.Fatalf("replay delivered %d events, want at least two windows and the end", len(all))
	}

	// Resume mid-stream: only events after the given seq return.
	mid := all[len(all)/2]
	resp = getStream(t, url, strconv.FormatInt(mid.id, 10))
	tail, _ := readSSE(t, resp.Body, nil)
	resp.Body.Close()
	if want := all[len(all)/2+1:]; len(tail) != len(want) {
		t.Fatalf("resume after %d: got %d events, want %d", mid.id, len(tail), len(want))
	} else {
		for i := range tail {
			if tail[i].id != want[i].id || !bytes.Equal(tail[i].data, want[i].data) {
				t.Fatalf("resumed event %d differs: id %d vs %d", i, tail[i].id, want[i].id)
			}
		}
	}

	// ?from overrides the header.
	resp = getStream(t, url+"?from="+strconv.FormatInt(all[len(all)-1].id-1, 10), "0")
	last, _ := readSSE(t, resp.Body, nil)
	resp.Body.Close()
	if len(last) != 1 || last[0].id != all[len(all)-1].id {
		t.Fatalf("?from override: got %d events", len(last))
	}

	// Garbage resume positions are a 400, not a stream.
	for _, q := range []string{"?from=abc", "?from=-1"} {
		resp, err := http.Get(url + q)
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %v status %d, want 400", q, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestStreamNotEnabled: sessions without artifacts.events have no bus
// and answer 404 with a hint, as do unknown sessions.
func TestStreamNotEnabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	info := submit(t, ts.URL, shortSpec())
	waitTerminal(t, ts.URL, info.ID)

	resp, err := http.Get(ts.URL + "/sessions/" + info.ID + "/events")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events without opt-in: %v status %d, want 404", err, resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "artifacts.events") {
		t.Fatalf("404 body gives no hint: %s", b)
	}

	resp, err = http.Get(ts.URL + "/sessions/nope/events")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown session: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestEventszStream: the server-wide stream carries every session's
// state walk plus serve.* counter deltas, replayable from history.
func TestEventszStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	info := submit(t, ts.URL, shortSpec())
	waitTerminal(t, ts.URL, info.ID)

	resp := getStream(t, ts.URL+"/eventsz?from=0", "")
	defer resp.Body.Close()
	// The server bus stays open for the server's lifetime; stop once the
	// session's terminal event has replayed.
	sawDone := false
	events, _ := readSSE(t, resp.Body, func(ev sseEvent) bool {
		if ev.kind != obs.KindSession {
			return false
		}
		var bd busData
		if err := json.Unmarshal(ev.data, &bd); err != nil {
			return false
		}
		var se SessionEvent
		if err := json.Unmarshal(bd.Data, &se); err != nil {
			return false
		}
		sawDone = se.ID == info.ID && se.State == StateDone
		return sawDone
	})
	if !sawDone {
		t.Fatalf("never saw session %s reach done on /eventsz (%d events)", info.ID, len(events))
	}

	var states []State
	var serveDeltas int
	for _, ev := range events {
		var bd busData
		if err := json.Unmarshal(ev.data, &bd); err != nil {
			t.Fatal(err)
		}
		switch ev.kind {
		case obs.KindSession:
			var se SessionEvent
			if err := json.Unmarshal(bd.Data, &se); err != nil {
				t.Fatal(err)
			}
			if se.ID == info.ID {
				states = append(states, se.State)
			}
		case obs.KindServe:
			var sv ServeEvent
			if err := json.Unmarshal(bd.Data, &sv); err != nil {
				t.Fatal(err)
			}
			if len(sv.CounterDeltas) > 0 {
				serveDeltas++
			}
		}
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("session state walk = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("session state walk = %v, want %v", states, want)
		}
	}
	if serveDeltas == 0 {
		t.Fatal("no serve.* counter deltas streamed")
	}
}

// legalSessionStep is the session state machine as /eventsz may show
// it: queued first, then optionally running, then one terminal state.
func legalSessionStep(from, to State) bool {
	switch from {
	case "":
		return to == StateQueued
	case StateQueued:
		return to == StateRunning || to.Terminal()
	case StateRunning:
		return to.Terminal()
	}
	return false
}

// TestEventszSessionOrder: concurrent clients submitting ledger hits,
// which a worker may finish before handleSubmit returns, must still see
// every session's walk on the server bus in the order its state changed:
// queued first, then legal steps to exactly one terminal state.
func TestEventszSessionOrder(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 1024, LedgerDir: t.TempDir()})
	waitTerminal(t, ts.URL, submit(t, ts.URL, shortSpec()).ID) // seed the ledger
	sub, err := srv.bus.Subscribe(0, obs.DefaultBusHistory)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	body, err := json.Marshal(shortSpec())
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 50
	ids := make(chan string, clients*perClient) // one send per session
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var info SessionInfo
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: status %d, %v", resp.StatusCode, err)
					return
				}
				ids <- info.ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	walks := map[string][]State{}
	for id := range ids {
		walks[id] = nil
	}

	ctx := contextWithTimeout(t, 60*time.Second)
	for pending := len(walks); pending > 0; {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("%d sessions never finished on the bus: %v", pending, err)
		}
		se, ok := ev.Data.(SessionEvent)
		walk, want := walks[se.ID]
		if !ok || !want {
			continue
		}
		var prev State
		if len(walk) > 0 {
			prev = walk[len(walk)-1]
		}
		if !legalSessionStep(prev, se.State) {
			t.Fatalf("session %s: %v then %s", se.ID, walk, se.State)
		}
		walks[se.ID] = append(walk, se.State)
		if se.State.Terminal() {
			pending--
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events", d)
	}
}

// TestStreamSubscriberLimit: the configured subscriber bound answers
// excess stream requests with 429 + Retry-After instead of admitting an
// unbounded reader population, on /eventsz and on each session's stream.
func TestStreamSubscriberLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, StreamSubscribers: 1})

	first := getStream(t, ts.URL+"/eventsz", "")
	defer first.Body.Close()
	want429(t, ts.URL+"/eventsz")

	// Releasing the first slot re-admits.
	first.Body.Close()
	waitFor429Clear(t, ts.URL+"/eventsz")

	spec := longSpec()
	spec["artifacts"] = map[string]bool{"events": true}
	info := submit(t, ts.URL, spec)
	url := ts.URL + "/sessions/" + info.ID + "/events"
	sessFirst := getStream(t, url, "")
	defer sessFirst.Body.Close()
	want429(t, url)
	if st := getInfo(t, ts.URL, info.ID).State; st.Terminal() {
		t.Fatalf("session already %s at the check; its stream was not live", st)
	}
}

// want429 requires url to refuse a subscriber with 429 + Retry-After.
func want429(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscriber to %s: status %d, want 429", url, resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// waitFor429Clear retries until the stream admits a subscriber (slot
// release is asynchronous with the client-side Close).
func waitFor429Clear(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stream slot never freed after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
