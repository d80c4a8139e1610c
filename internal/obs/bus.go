package obs

import (
	"context"
	"errors"
	"sync"
)

// EventBus is the live telemetry plane of the obs layer: a bounded,
// drop-accounted publish/subscribe fan-out that lets the decision log,
// the metrics registry and the control loop publish lifecycle and
// window events *while the run executes*, instead of only materializing
// artifacts after it ends.
//
// The bus is the one obs type that locks: publishers are the single
// simulation goroutine (or, for a server-wide bus, HTTP handlers), but
// subscribers drain from arbitrary goroutines (SSE handlers, cobra-top).
// Three properties carry the rest of the obs layer's contract over:
//
//   - Nil safety: a nil *EventBus is the disabled state; Publish on it
//     is a no-op and allocates nothing, so instrumented code can hold a
//     bus handle unconditionally and a disabled run stays zero-cost.
//   - Publishers never block. Every subscriber owns a bounded ring
//     buffer; a stalled reader overwrites its own oldest events (each
//     overwrite counted in Dropped) and can never back-pressure the
//     simulator.
//   - Monotonic sequence numbers. Every published event gets the next
//     seq (from 1), kept in a bounded history ring so a reconnecting
//     subscriber can resume from the last seq it saw (SSE
//     Last-Event-ID); gaps are visible as seq jumps and counted.
type EventBus struct {
	mu      sync.Mutex
	nextSeq int64
	closed  bool

	// history is a ring of the most recent events, for resume/backfill.
	history []BusEvent
	hStart  int // index of the oldest retained event
	hLen    int

	subs    map[*Subscription]struct{}
	maxSubs int
}

// BusEvent is one live telemetry event. Data is a typed payload (one of
// the Kind* documented shapes) that serializes to the SSE data field.
type BusEvent struct {
	// Seq is the bus-assigned monotonic sequence number, from 1.
	Seq int64 `json:"seq"`
	// Kind tags the payload shape (KindPass, KindWindow, ...).
	Kind string `json:"kind"`
	// Cycle anchors simulation-domain events in simulated cycles
	// (0 for service-domain events).
	Cycle int64 `json:"cycle,omitempty"`
	// Data is the payload; nil for marker events like KindEnd.
	Data any `json:"data,omitempty"`
}

// Event kinds published by this repo's emitters.
const (
	// KindPass: one control-loop optimizer pass closed a profiling
	// window (payload PassEvent) — published by cobra.Runtime.
	KindPass = "pass"
	// KindWindow: the metrics registry snapshotted a window (payload
	// WindowEvent: the WindowSnapshot plus counter deltas).
	KindWindow = "window"
	// KindDecision: the decision log recorded a patch-lifecycle
	// transition (payload Decision).
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

// PassEvent is the KindPass payload: the rolling per-window view of the
// control loop, published every optimizer pass even when the full
// metrics registry is disabled.
type PassEvent struct {
	Window        int     `json:"window"`
	Cycle         int64   `json:"cycle"`
	IPC           float64 `json:"ipc"`
	CoherentShare float64 `json:"coherent_share"`
	Samples       int64   `json:"samples"`
	GlobalIPCEMA  float64 `json:"global_ipc_ema"`
}

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
	// DefaultBusHistory bounds the retained-event ring used for resume.
	DefaultBusHistory = 1 << 13
	// DefaultBusSubscribers bounds concurrent subscriptions per bus.
	DefaultBusSubscribers = 32
	// DefaultSubscriberBuffer is the per-subscriber ring capacity.
	DefaultSubscriberBuffer = 1 << 10
)

var (
	// ErrBusClosed is returned by Subscription.Next once the bus is
	// closed and every buffered event has been drained.
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
		history: make([]BusEvent, historyCap),
		subs:    map[*Subscription]struct{}{},
		maxSubs: maxSubs,
	}
}

// Publish assigns the next sequence number to one event and fans it out
// to every subscriber ring. It never blocks on slow consumers, is a
// no-op on a nil or closed bus, and returns the assigned seq (0 when
// disabled or closed).
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
	// Retain in the history ring, overwriting the oldest entry once full.
	if b.hLen < len(b.history) {
		b.history[(b.hStart+b.hLen)%len(b.history)] = ev
		b.hLen++
	} else {
		b.history[b.hStart] = ev
		b.hStart = (b.hStart + 1) % len(b.history)
	}
	for sub := range b.subs {
		sub.push(ev)
	}
	return ev.Seq
}

// Subscribe registers a subscriber whose ring buffers at most buf
// events (0 = DefaultSubscriberBuffer), backfilled with every retained
// event with seq > fromSeq (0 = from the beginning); when the backfill
// alone exceeds buf the ring is sized to hold it (bounded by the
// history capacity), so a resume never truncates retained history.
// Events older than the history ring retains are counted in Dropped —
// the seq of the first delivered event exposes the gap. Subscribing to a closed bus
// succeeds and drains the retained history before Next reports
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
	s := &Subscription{
		bus:  b,
		ring: make([]BusEvent, buf),
		wake: make(chan struct{}, 1),
	}
	// Backfill from history. The oldest retained seq is
	// nextSeq - hLen + 1; anything between fromSeq and it was evicted.
	if b.hLen > 0 {
		oldest := b.nextSeq - int64(b.hLen) + 1
		if fromSeq+1 < oldest {
			s.dropped += oldest - fromSeq - 1
		}
		// A resume must replay every retained event after fromSeq, so
		// grow the ring to fit the backfill (bounded by the history cap)
		// rather than letting the replay overwrite its own head.
		if n := b.nextSeq - fromSeq; n > int64(buf) {
			if n > int64(b.hLen) {
				n = int64(b.hLen)
			}
			if n > int64(buf) {
				s.ring = make([]BusEvent, n)
			}
		}
		for i := 0; i < b.hLen; i++ {
			ev := b.history[(b.hStart+i)%len(b.history)]
			if ev.Seq > fromSeq {
				s.push(ev)
			}
		}
	} else if fromSeq < b.nextSeq {
		s.dropped += b.nextSeq - fromSeq
	}
	if !b.closed {
		b.subs[s] = struct{}{}
	} else {
		s.busClosed = true
	}
	return s, nil
}

// Close marks the bus complete: no further events are accepted, and
// every subscriber's Next reports ErrBusClosed once its ring drains.
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
		sub.busClosed = true
		sub.wakeup()
		delete(b.subs, sub)
	}
}

// Subscription is one subscriber's bounded view of the bus. All methods
// are safe to call from a single consumer goroutine concurrently with
// publishers.
type Subscription struct {
	bus  *EventBus
	wake chan struct{}

	// Guarded by bus.mu (push side) — the consumer side re-acquires it.
	ring      []BusEvent
	head, n   int
	dropped   int64
	busClosed bool
	closed    bool
}

// push appends one event, overwriting the oldest when full. Caller
// holds bus.mu.
func (s *Subscription) push(ev BusEvent) {
	if s.closed {
		return
	}
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
	}
	s.ring[(s.head+s.n)%len(s.ring)] = ev
	s.n++
	s.wakeup()
}

func (s *Subscription) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// TryNext pops the next buffered event without blocking.
func (s *Subscription) TryNext() (BusEvent, bool) {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.n == 0 {
		return BusEvent{}, false
	}
	ev := s.ring[s.head]
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	return ev, true
}

// Next blocks until an event is available, the bus closes (ErrBusClosed,
// after the ring drains) or ctx is done (its error).
func (s *Subscription) Next(ctx context.Context) (BusEvent, error) {
	for {
		s.bus.mu.Lock()
		if s.n > 0 {
			ev := s.ring[s.head]
			s.head = (s.head + 1) % len(s.ring)
			s.n--
			s.bus.mu.Unlock()
			return ev, nil
		}
		done := s.busClosed || s.closed
		s.bus.mu.Unlock()
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

// Dropped returns how many events this subscriber lost to ring
// overwrites plus any resume gap beyond the bus history.
func (s *Subscription) Dropped() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription; pending events are discarded.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.closed = true
	delete(s.bus.subs, s)
}
