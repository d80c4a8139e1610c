package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// SSE streaming over the obs event plane.
//
// Two endpoints expose live telemetry as text/event-stream:
//
//	GET /sessions/{id}/events   one session's bus: pass summaries,
//	                            window snapshots (+ counter deltas),
//	                            patch-lifecycle decisions, end marker
//	GET /eventsz                the server-wide bus: session state
//	                            changes, serve.* counter deltas
//
// Every SSE record carries the bus sequence number as its id, the event
// kind as its event name, and the full obs.BusEvent JSON as its data,
// so `Last-Event-ID` (or ?from=N) resumes exactly where a dropped
// connection left off — the bus backfills from its bounded history and
// any unbridgeable gap shows up as a seq jump plus a `: gap` comment.
//
// Slow clients cannot back-pressure a simulation: each subscriber is a
// cursor into the bus's one bounded history, and one that falls more
// than its lag bound behind skips its oldest unread events (dropped and
// accounted, not blocked on); subscriber counts are bounded (excess
// answered 429), and each network write runs under a deadline — a
// stalled reader is evicted, not waited for.

const (
	// streamHeartbeat paces comment keep-alives on idle streams, so
	// proxies do not sever them and dead clients are detected.
	streamHeartbeat = 10 * time.Second
	// streamWriteTimeout is the per-write deadline; a client that cannot
	// drain one event within it is evicted.
	streamWriteTimeout = 10 * time.Second
)

// handleSessionEvents is GET /sessions/{id}/events.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	bus := sess.observer.Bus()
	if bus == nil {
		writeError(w, http.StatusNotFound,
			"session %s did not enable the event stream (submit with artifacts.events=true)", sess.id)
		return
	}
	s.streamBus(w, r, bus)
}

// handleEventsz is GET /eventsz: the server-wide stream.
func (s *Server) handleEventsz(w http.ResponseWriter, r *http.Request) {
	s.streamBus(w, r, s.bus)
}

// resumeSeq extracts the client's resume position: the SSE standard
// Last-Event-ID header, or an explicit ?from=N (0 = from the start).
func resumeSeq(r *http.Request) (int64, error) {
	v := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("from"); q != "" {
		v = q
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad resume position %q (want a non-negative event seq)", v)
	}
	return n, nil
}

// streamBus subscribes to bus and relays events to the client until the
// bus closes, the client disconnects, or the client stalls past the
// write deadline.
func (s *Server) streamBus(w http.ResponseWriter, r *http.Request, bus *obs.EventBus) {
	from, err := resumeSeq(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sub, err := bus.Subscribe(from, 0)
	if err != nil {
		if errors.Is(err, obs.ErrTooManySubscribers) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "stream subscriber limit reached; retry later")
			return
		}
		writeError(w, http.StatusInternalServerError, "subscribe: %v", err)
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	write := func(b []byte) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := w.Write(b); err != nil {
			return false // client gone or stalled: evict
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !write([]byte("retry: 1000\n\n")) {
		return
	}

	var reportedDrops int64
	for {
		waitCtx, cancel := context.WithTimeout(r.Context(), streamHeartbeat)
		ev, err := sub.Next(waitCtx)
		cancel()
		switch {
		case err == nil:
			if d := sub.Dropped(); d != reportedDrops {
				reportedDrops = d
				if !write([]byte(fmt.Sprintf(": gap dropped=%d\n\n", d))) {
					return
				}
			}
			data, merr := json.Marshal(ev)
			if merr != nil {
				// Payloads are plain JSON-safe structs; a marshal failure is
				// a programming error in an emitter — surface, don't hang.
				s.logf("serve: stream marshal seq %d: %v", ev.Seq, merr)
				continue
			}
			if !write([]byte(fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data))) {
				return
			}
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			if !write([]byte(": keep-alive\n\n")) {
				return
			}
		default:
			// Bus closed (stream complete — the end marker was a real
			// event, already delivered) or client disconnected.
			return
		}
	}
}
