package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps host-time spans in memory for the traced pass and writes
// them at the end as Chrome trace_event JSON. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for a root); spans of one request or session share
// Req. Lane groups spans into one row of the trace viewer.
type span struct {
	ID, Parent int64
	Name, Req  string
	Lane       int
	Start, End time.Duration // since the tracer's epoch
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, req string, lane int, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// len is the number of spans recorded.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one complete ("X") trace_event; ts and dur are host
// microseconds since the tracer's epoch.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON whose clock is
// host time (the simulator's own obs tracer uses simulated cycles).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"clockDomain": "host-wall-microseconds", "epoch": t.epoch.UTC().Format(time.RFC3339Nano)},
		"traceEvents":     events,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
