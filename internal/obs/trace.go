package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event is one Chrome trace_event record. TS and Dur are simulated
// machine cycles (the trace_event "ts" unit is nominally microseconds;
// Perfetto renders whatever integers it is given, so one tick = one
// cycle). Ph is the phase: "X" complete span, "i" instant, "C" counter,
// "M" metadata.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records cycle-domain events into a bounded buffer and exports
// them in Chrome trace_event JSON, loadable directly in Perfetto or
// chrome://tracing. A nil *Tracer is the disabled state: every method is
// a no-op. The tracer is not safe for concurrent use; the simulator is
// single-goroutine per machine and each instance owns its tracer.
type Tracer struct {
	max     int
	dropped int64
	meta    []Event // thread-name metadata, emitted ahead of events
	events  []Event
}

// DefaultTraceCap bounds the event buffer when no cap is configured.
const DefaultTraceCap = 1 << 20

// NewTracer returns an enabled tracer buffering at most max events
// (0 = DefaultTraceCap). The cap bounds memory on long runs; events past
// it are counted in Dropped, never silently lost.
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &Tracer{max: max}
}

func (t *Tracer) add(e Event) {
	if t == nil {
		return
	}
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	e.PID = PID
	t.events = append(t.events, e)
}

// Instant records a zero-duration event at cycle on track tid.
func (t *Tracer) Instant(cat, name string, tid int, cycle int64, args map[string]any) {
	t.add(Event{Name: name, Cat: cat, Ph: "i", TS: cycle, TID: tid, S: "t", Args: args})
}

// Span records a complete span covering [start, end] cycles on track tid.
// An end before start is clamped to a zero-length span at start.
func (t *Tracer) Span(cat, name string, tid int, start, end int64, args map[string]any) {
	if end < start {
		end = start
	}
	t.add(Event{Name: name, Cat: cat, Ph: "X", TS: start, Dur: end - start, TID: tid, Args: args})
}

// Counter records counter-track values at cycle; each key of series
// becomes one series of the named counter track.
func (t *Tracer) Counter(name string, tid int, cycle int64, series map[string]float64) {
	if t == nil || len(series) == 0 {
		return
	}
	args := make(map[string]any, len(series))
	for k, v := range series {
		args[k] = v
	}
	t.add(Event{Name: name, Ph: "C", TS: cycle, TID: tid, Args: args})
}

// ThreadName labels track tid in the viewer (a trace_event metadata
// record). Metadata does not count against the event cap.
func (t *Tracer) ThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.meta = append(t.meta, Event{
		Name: "thread_name", Ph: "M", PID: PID, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// Len returns the number of buffered (non-metadata) events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events exposes the buffered events for tests and invariant checks.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// WriteJSON writes the trace in Chrome trace_event JSON object format,
// one event per line (line-diffable goldens, still a single valid JSON
// document). Output is deterministic: events appear in emission order
// and map-valued args serialize with sorted keys.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`+"\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"clockDomain\":\"simulated-cycles\",\"dropped\":%d},\n\"traceEvents\":[\n", t.dropped); err != nil {
		return err
	}
	n := len(t.meta) + len(t.events)
	write := func(i int, e Event) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i < n-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	for i, e := range t.meta {
		if err := write(i, e); err != nil {
			return err
		}
	}
	for i, e := range t.events {
		if err := write(len(t.meta)+i, e); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error { return writeFile(path, t.WriteJSON) }
