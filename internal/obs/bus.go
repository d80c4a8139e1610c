package obs

import (
	"context"
	"errors"
	"sync"
)

// EventBus is the live telemetry plane of the obs layer: a bounded,
// drop-accounted publish/subscribe fan-out onto which the observer
// projects each window and decision fact *while the run executes*,
// instead of only materializing artifacts after it ends.
//
// The bus is the one obs type that locks: publishers are the single
// simulation goroutine (or, for a server-wide bus, HTTP handlers), but
// subscribers drain from arbitrary goroutines (SSE handlers, cobra-top).
// Three properties carry the rest of the obs layer's contract over:
//
//   - Nil safety: a nil *EventBus is the disabled state; Publish on it
//     is a no-op and allocates nothing, so instrumented code can hold a
//     bus handle unconditionally and a disabled run stays zero-cost.
//   - Publishers never block. Each event is stored once, in the bus's
//     bounded history; a subscriber is a cursor into that history with a
//     lag bound. A stalled reader that falls more than its bound behind
//     skips its oldest unread events (each skip counted in Dropped) and
//     can never back-pressure the simulator.
//   - Monotonic sequence numbers. Every published event gets the next
//     seq (from 1), so a reconnecting subscriber can resume from the
//     last seq it saw (SSE Last-Event-ID); gaps are visible as seq jumps
//     and counted.
type EventBus struct {
	mu      sync.Mutex
	nextSeq int64 // seq of the newest event (0 before the first)
	closed  bool

	// history holds the most recent events, oldest first around a ring:
	// it grows by append up to hCap, then each event overwrites the
	// oldest, at hStart.
	history []BusEvent
	hCap    int
	hStart  int

	subs    map[*Subscription]struct{}
	maxSubs int
}

// BusEvent is one live telemetry event. Data is a typed payload (one of
// the Kind* documented shapes) that serializes to the SSE data field.
type BusEvent struct {
	// Seq is the bus-assigned monotonic sequence number, from 1.
	Seq int64 `json:"seq"`
	// Kind tags the payload shape (KindWindow, KindDecision, ...).
	Kind string `json:"kind"`
	// Cycle anchors simulation-domain events in simulated cycles
	// (0 for service-domain events).
	Cycle int64 `json:"cycle,omitempty"`
	// Data is the payload; nil for marker events like KindEnd.
	Data any `json:"data,omitempty"`
}

// Event kinds published by this repo's emitters.
const (
	// KindWindow: one optimizer pass closed a profiling window (payload
	// WindowEvent: the registry's snapshot plus counter deltas).
	KindWindow = "window"
	// KindDecision: a patch-lifecycle transition (payload Decision, as
	// the decision log recorded it).
	KindDecision = "decision"
	// KindSession: a cobrad session changed state (payload defined by
	// internal/serve).
	KindSession = "session"
	// KindServe: cobrad server-wide counter deltas and queue depth
	// (payload defined by internal/serve).
	KindServe = "serve"
	// KindEnd: the stream is complete; no further events will be
	// published (the bus closes right after).
	KindEnd = "end"
)

// WindowEvent is the KindWindow payload: the registry's WindowSnapshot
// for the window that just closed, plus the counter deltas against the
// previous snapshot — the "/metricsz deltas" a live dashboard wants
// without diffing consecutive scrapes itself.
type WindowEvent struct {
	WindowSnapshot
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
}

// Bus sizing defaults.
const (
	// DefaultBusHistory bounds the retained-event history.
	DefaultBusHistory = 1 << 13
	// DefaultBusSubscribers bounds concurrent subscriptions per bus.
	DefaultBusSubscribers = 32
	// DefaultSubscriberBuffer is the default lag bound: how many unread
	// events a subscriber may fall behind before it skips its oldest.
	DefaultSubscriberBuffer = 1 << 10
)

var (
	// ErrBusClosed is returned by Subscription.Next once the bus is
	// closed and every retained unread event has been drained.
	ErrBusClosed = errors.New("obs: event bus closed")
	// ErrBusDisabled is returned by Subscribe on a nil bus.
	ErrBusDisabled = errors.New("obs: event bus disabled")
	// ErrTooManySubscribers is returned by Subscribe at the bound.
	ErrTooManySubscribers = errors.New("obs: too many bus subscribers")
)

// NewEventBus returns an enabled bus retaining historyCap events for
// resume (0 = DefaultBusHistory) and admitting at most maxSubs
// concurrent subscribers (0 = DefaultBusSubscribers).
func NewEventBus(historyCap, maxSubs int) *EventBus {
	if historyCap <= 0 {
		historyCap = DefaultBusHistory
	}
	if maxSubs <= 0 {
		maxSubs = DefaultBusSubscribers
	}
	return &EventBus{
		hCap:    historyCap,
		subs:    map[*Subscription]struct{}{},
		maxSubs: maxSubs,
	}
}

// Publish assigns the next sequence number to one event, stores it in
// the history and wakes every subscriber. It never blocks on slow
// consumers, is a no-op on a nil or closed bus, and returns the assigned
// seq (0 when disabled or closed).
func (b *EventBus) Publish(kind string, cycle int64, data any) int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.nextSeq++
	ev := BusEvent{Seq: b.nextSeq, Kind: kind, Cycle: cycle, Data: data}
	if len(b.history) < b.hCap {
		b.history = append(b.history, ev)
	} else {
		b.history[b.hStart] = ev
		b.hStart = (b.hStart + 1) % b.hCap
	}
	for sub := range b.subs {
		sub.wakeup()
	}
	return ev.Seq
}

// oldest returns the seq of the oldest retained event (nextSeq+1 when
// the history is empty). Caller holds b.mu.
func (b *EventBus) oldest() int64 { return b.nextSeq - int64(len(b.history)) + 1 }

// Subscribe registers a cursor that delivers every retained event with
// seq > fromSeq (0 = from the beginning), then every later one. A
// fromSeq past the newest event is clamped to it, so a client resuming
// against a younger bus (a restarted server) hears every event from now
// on. Events between fromSeq and the oldest retained one are counted in
// Dropped; the seq of the first delivered event exposes the gap.
//
// buf is the lag bound (0 = DefaultSubscriberBuffer): a reader more than
// buf events behind skips its oldest unread ones, counting each in
// Dropped. The bound grows to cover the backfill, so a resume never
// truncates retained history. It is capped at the history capacity,
// since no older event is retained; every caller passes 0 on a
// DefaultBusHistory bus, so none asks for more. Subscribing to a closed
// bus succeeds and drains the retained history before Next reports
// ErrBusClosed, so a completed session's stream remains replayable.
func (b *EventBus) Subscribe(fromSeq int64, buf int) (*Subscription, error) {
	if b == nil {
		return nil, ErrBusDisabled
	}
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) >= b.maxSubs {
		return nil, ErrTooManySubscribers
	}
	from := min(fromSeq, b.nextSeq)
	bound := max(int64(buf), min(b.nextSeq-from, int64(len(b.history))))
	s := &Subscription{
		bus:   b,
		wake:  make(chan struct{}, 1),
		next:  max(from+1, b.oldest()),
		bound: min(bound, int64(b.hCap)),
	}
	s.dropped = s.next - from - 1
	if !b.closed {
		b.subs[s] = struct{}{}
	}
	return s, nil
}

// Close marks the bus complete: no further events are accepted, and
// every subscriber's Next reports ErrBusClosed once it has drained.
// Safe to call on a nil bus and idempotent.
func (b *EventBus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		sub.wakeup()
		delete(b.subs, sub)
	}
}

// Subscription is one subscriber's cursor into the bus history. All
// methods are safe to call from a single consumer goroutine concurrently
// with publishers.
type Subscription struct {
	bus  *EventBus
	wake chan struct{}

	// Guarded by bus.mu.
	next    int64 // seq of the next event to deliver
	bound   int64 // lag bound
	dropped int64
	closed  bool
}

func (s *Subscription) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// catchUp skips the oldest unread events beyond the lag bound, counting
// each as dropped. Caller holds bus.mu.
func (s *Subscription) catchUp() {
	if lag := s.bus.nextSeq - s.next + 1; lag > s.bound && !s.closed {
		s.dropped += lag - s.bound
		s.next += lag - s.bound
	}
}

// pop returns the next unread event, if any. Caller holds bus.mu.
func (s *Subscription) pop() (BusEvent, bool) {
	s.catchUp()
	if s.closed || s.next > s.bus.nextSeq {
		return BusEvent{}, false
	}
	b := s.bus
	ev := b.history[(b.hStart+int(s.next-b.oldest()))%len(b.history)]
	s.next++
	return ev, true
}

// TryNext returns the next unread event without blocking.
func (s *Subscription) TryNext() (BusEvent, bool) {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.pop()
}

// Next blocks until an event is available, the bus closes (ErrBusClosed,
// after the cursor drains) or ctx is done (its error).
func (s *Subscription) Next(ctx context.Context) (BusEvent, error) {
	for {
		s.bus.mu.Lock()
		ev, ok := s.pop()
		done := s.bus.closed || s.closed
		s.bus.mu.Unlock()
		if ok {
			return ev, nil
		}
		if done {
			return BusEvent{}, ErrBusClosed
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return BusEvent{}, ctx.Err()
		}
	}
}

// Dropped returns how many events this subscriber skipped for lagging
// past its bound, plus any resume gap beyond the bus history.
func (s *Subscription) Dropped() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.catchUp()
	return s.dropped
}

// Close unregisters the subscription; unread events are discarded.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.catchUp()
	s.closed = true
	delete(s.bus.subs, s)
}
