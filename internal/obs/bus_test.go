package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBusNilSafety(t *testing.T) {
	var b *EventBus
	if seq := b.Publish(KindPass, 1, nil); seq != 0 {
		t.Fatalf("nil Publish returned seq %d", seq)
	}
	if _, err := b.Subscribe(0, 0); !errors.Is(err, ErrBusDisabled) {
		t.Fatalf("nil Subscribe err = %v, want ErrBusDisabled", err)
	}
	b.Close() // must not panic

	// A nil observer (and one built without Events) exposes a nil bus.
	var o *Observer
	if o.Bus() != nil {
		t.Fatal("nil observer has a bus")
	}
	if New(Config{Metrics: true}).Bus() != nil {
		t.Fatal("events-disabled observer has a bus")
	}
	if New(Config{Events: true}).Bus() == nil {
		t.Fatal("events-enabled observer lacks a bus")
	}
}

func TestBusNilPublishZeroAlloc(t *testing.T) {
	var b *EventBus
	if n := testing.AllocsPerRun(100, func() {
		b.Publish(KindPass, 1, nil)
	}); n != 0 {
		t.Fatalf("disabled-bus Publish allocates %.1f/op, want 0", n)
	}
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewEventBus(0, 0)
	sub, err := b.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if seq := b.Publish(KindPass, int64(i*10), i); seq != int64(i) {
			t.Fatalf("publish %d assigned seq %d", i, seq)
		}
	}
	for i := 1; i <= 5; i++ {
		ev, ok := sub.TryNext()
		if !ok {
			t.Fatalf("event %d missing", i)
		}
		if ev.Seq != int64(i) || ev.Cycle != int64(i*10) || ev.Data.(int) != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("extra event")
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("dropped = %d", d)
	}
}

// TestBusSlowSubscriberDrops: a stalled subscriber loses its oldest
// events to the ring bound — counted, never blocking the publisher —
// while keeping the most recent ones.
func TestBusSlowSubscriberDrops(t *testing.T) {
	b := NewEventBus(0, 0)
	sub, _ := b.Subscribe(0, 4)
	done := make(chan struct{})
	go func() { // publisher must not block regardless of the reader
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(KindPass, int64(i), i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}
	if d := sub.Dropped(); d != 96 {
		t.Fatalf("dropped = %d, want 96", d)
	}
	ev, ok := sub.TryNext()
	if !ok || ev.Seq != 97 {
		t.Fatalf("first surviving seq = %d (ok=%v), want 97 (newest 4 retained)", ev.Seq, ok)
	}
}

// TestBusZeroDropsBelowBound: a consumer that keeps up within the ring
// bound sees a gapless, strictly monotone sequence.
func TestBusZeroDropsBelowBound(t *testing.T) {
	b := NewEventBus(0, 0)
	sub, _ := b.Subscribe(0, 256)
	const n = 256
	for i := 0; i < n; i++ {
		b.Publish(KindPass, int64(i), nil)
	}
	for want := int64(1); want <= n; want++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("seq %d: got %d ok=%v", want, ev.Seq, ok)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d below the bound", sub.Dropped())
	}
}

func TestBusResumeFromHistory(t *testing.T) {
	b := NewEventBus(64, 0)
	for i := 0; i < 10; i++ {
		b.Publish(KindPass, int64(i), i)
	}
	// Resume after seq 6: events 7..10 replay.
	sub, err := b.Subscribe(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(7); want <= 10; want++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("resume: want seq %d, got %d ok=%v", want, ev.Seq, ok)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("resume within history dropped %d", sub.Dropped())
	}
	// New events keep flowing to the resumed subscriber.
	b.Publish(KindPass, 11, nil)
	if ev, ok := sub.TryNext(); !ok || ev.Seq != 11 {
		t.Fatalf("live after resume: %v %v", ev, ok)
	}
}

func TestBusResumeGapBeyondHistory(t *testing.T) {
	b := NewEventBus(8, 0)
	for i := 0; i < 20; i++ { // history retains seqs 13..20
		b.Publish(KindPass, int64(i), nil)
	}
	sub, _ := b.Subscribe(2, 0)
	if d := sub.Dropped(); d != 10 { // 3..12 evicted
		t.Fatalf("gap dropped = %d, want 10", d)
	}
	ev, ok := sub.TryNext()
	if !ok || ev.Seq != 13 {
		t.Fatalf("first after gap = %d ok=%v, want 13", ev.Seq, ok)
	}
}

// TestBusReplayExceedsBuffer: resuming a bus whose retained history is
// larger than the subscriber buffer must replay the whole history
// losslessly (the ring grows to fit the backfill) instead of the
// backfill overwriting its own head.
func TestBusReplayExceedsBuffer(t *testing.T) {
	b := NewEventBus(4096, 0)
	const n = 3000 // > DefaultSubscriberBuffer, < history cap
	for i := 1; i <= n; i++ {
		b.Publish(KindPass, int64(i), nil)
	}
	b.Close()
	sub, err := b.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("replay within history dropped %d", d)
	}
	for want := int64(1); want <= n; want++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("replay seq %d: got %d ok=%v", want, ev.Seq, ok)
		}
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("after full replay err = %v, want ErrBusClosed", err)
	}

	// A live subscriber resuming mid-stream grows only to the pending
	// backfill, and further live events still obey the requested bound.
	b2 := NewEventBus(0, 0)
	for i := 1; i <= 50; i++ {
		b2.Publish(KindPass, int64(i), nil)
	}
	sub2, _ := b2.Subscribe(0, 8) // 50-event backfill > 8-slot ring
	for want := int64(1); want <= 50; want++ {
		ev, ok := sub2.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("live backfill seq %d: got %d ok=%v", want, ev.Seq, ok)
		}
	}
	if sub2.Dropped() != 0 {
		t.Fatalf("live backfill dropped %d", sub2.Dropped())
	}
}

func TestBusSubscriberLimit(t *testing.T) {
	b := NewEventBus(0, 2)
	s1, err1 := b.Subscribe(0, 0)
	_, err2 := b.Subscribe(0, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, err := b.Subscribe(0, 0); !errors.Is(err, ErrTooManySubscribers) {
		t.Fatalf("third Subscribe err = %v", err)
	}
	s1.Close() // freeing a slot re-admits
	if _, err := b.Subscribe(0, 0); err != nil {
		t.Fatalf("Subscribe after Close: %v", err)
	}
}

func TestBusCloseDrainsThenEnds(t *testing.T) {
	b := NewEventBus(0, 0)
	sub, _ := b.Subscribe(0, 0)
	b.Publish(KindDecision, 5, "d1")
	b.Close()
	if seq := b.Publish(KindDecision, 6, "d2"); seq != 0 {
		t.Fatalf("publish after close assigned seq %d", seq)
	}
	ctx := context.Background()
	ev, err := sub.Next(ctx)
	if err != nil || ev.Seq != 1 {
		t.Fatalf("buffered event after close: %v %v", ev, err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("Next after drain err = %v, want ErrBusClosed", err)
	}
	// Subscribing to a closed bus still replays retained history.
	late, err := b.Subscribe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := late.TryNext(); !ok || ev.Seq != 1 {
		t.Fatalf("late subscriber replay: %v %v", ev, ok)
	}
	if _, err := late.Next(ctx); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("late Next err = %v", err)
	}
}

func TestBusNextBlocksAndWakes(t *testing.T) {
	b := NewEventBus(0, 0)
	sub, _ := b.Subscribe(0, 0)
	got := make(chan BusEvent, 1)
	go func() {
		ev, err := sub.Next(context.Background())
		if err == nil {
			got <- ev
		}
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish(KindPass, 42, nil)
	select {
	case ev := <-got:
		if ev.Cycle != 42 {
			t.Fatalf("woke with %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke")
	}

	// Context cancellation unblocks a waiting Next.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sub.Next(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next ignored ctx")
	}
}

// TestBusConcurrent hammers one bus from several publishers and
// subscribers; run under -race this is the data-race probe, and each
// subscriber must observe strictly increasing seqs.
func TestBusConcurrent(t *testing.T) {
	b := NewEventBus(0, 0)
	const pubs, subs, perPub = 4, 4, 500
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub, err := b.Subscribe(0, perPub*pubs)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				ev, err := sub.Next(context.Background())
				if err != nil {
					return // bus closed
				}
				if ev.Seq <= last {
					t.Errorf("seq went %d -> %d", last, ev.Seq)
					return
				}
				last = ev.Seq
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(KindPass, int64(i), p)
			}
		}(p)
	}
	pwg.Wait()
	b.Close()
	wg.Wait()
	// Every publish got its own seq: resumed just before the total, the
	// closed bus replays exactly one event, numbered the total.
	sub, err := b.Subscribe(pubs*perPub-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := sub.Next(context.Background()); err != nil || ev.Seq != pubs*perPub {
		t.Fatalf("last event = %+v, %v; want seq %d", ev, err, pubs*perPub)
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("after the last event: err = %v, want ErrBusClosed", err)
	}
}

// TestRegistrySnapshotPublishes pins the Registry → bus contract: one
// KindWindow event per snapshot, carrying the snapshot plus counter
// deltas against the previous window.
func TestRegistrySnapshotPublishes(t *testing.T) {
	o := New(Config{Metrics: true, Events: true})
	reg, bus := o.Metrics(), o.Bus()
	sub, _ := bus.Subscribe(0, 0)

	reg.Counter("x").Add(3)
	reg.Gauge("g").Set(1.5)
	reg.Snapshot(0, 100)
	reg.Counter("x").Add(2)
	reg.Snapshot(1, 200)
	reg.Snapshot(2, 300) // no change: no deltas

	want := []struct {
		window int
		cycle  int64
		deltas map[string]int64
	}{
		{0, 100, map[string]int64{"x": 3}},
		{1, 200, map[string]int64{"x": 2}},
		{2, 300, nil},
	}
	for i, w := range want {
		ev, ok := sub.TryNext()
		if !ok || ev.Kind != KindWindow {
			t.Fatalf("event %d: %+v ok=%v", i, ev, ok)
		}
		we := ev.Data.(WindowEvent)
		if we.Window != w.window || we.Cycle != w.cycle {
			t.Fatalf("event %d: window %d cycle %d", i, we.Window, we.Cycle)
		}
		if len(we.CounterDeltas) != len(w.deltas) {
			t.Fatalf("event %d deltas = %v, want %v", i, we.CounterDeltas, w.deltas)
		}
		for k, v := range w.deltas {
			if we.CounterDeltas[k] != v {
				t.Fatalf("event %d delta %s = %d, want %d", i, k, we.CounterDeltas[k], v)
			}
		}
		if we.Gauges["g"] != 1.5 {
			t.Fatalf("event %d gauge missing: %v", i, we.Gauges)
		}
	}
}

// TestDecisionLogPublishes pins the DecisionLog → bus contract: every
// Record publishes the exact Decision it appended.
func TestDecisionLogPublishes(t *testing.T) {
	o := New(Config{Decisions: true, Events: true})
	dl, bus := o.Decisions(), o.Bus()
	sub, _ := bus.Subscribe(0, 0)

	dl.Record(100, 0x40, 1, StateCandidate, "trigger", Evidence{BusHitm: 7})
	dl.Record(110, 0x40, 1, StateDeployed, "deploy", Evidence{Rewrite: "nop"})

	for i, want := range dl.Decisions() {
		ev, ok := sub.TryNext()
		if !ok || ev.Kind != KindDecision {
			t.Fatalf("event %d: %+v ok=%v", i, ev, ok)
		}
		if got := ev.Data.(Decision); got != want {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
		if ev.Cycle != want.Cycle {
			t.Fatalf("event %d cycle %d != %d", i, ev.Cycle, want.Cycle)
		}
	}
}
