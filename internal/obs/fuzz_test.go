package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// busCursor is FuzzBusResume's record of one subscription: where it
// started and what it has delivered so far.
type busCursor struct {
	sub       *Subscription
	base      int64 // min(from, newest seq at subscribe)
	delivered int64
	dropped   int64
	closed    bool
}

// read takes one event from c and checks its accounting: seqs strictly
// increase past base, and each delivered seq is base plus the events
// delivered and dropped so far, so a skipped event is always counted.
func (c *busCursor) read(t *testing.T, ev BusEvent) {
	t.Helper()
	c.delivered++
	c.checkDropped(t)
	if want := c.base + c.delivered + c.dropped; ev.Seq != want {
		t.Fatalf("delivered seq %d, want %d (base %d, %d delivered, %d dropped)", ev.Seq, want, c.base, c.delivered, c.dropped)
	}
	if ev.Data != ev.Seq || ev.Cycle != ev.Seq {
		t.Fatalf("seq %d carries the payload of %v", ev.Seq, ev.Data)
	}
}

// checkDropped requires Dropped never to decrease.
func (c *busCursor) checkDropped(t *testing.T) {
	t.Helper()
	d := c.sub.Dropped()
	if d < c.dropped {
		t.Fatalf("Dropped went %d -> %d", c.dropped, d)
	}
	c.dropped = d
}

// FuzzBusResume decodes bytes into publish, subscribe (any resume point,
// any lag bound), read and close operations on a bus with a history of
// 1 to 16 events. It must never panic; each subscription's seqs must
// strictly increase past min(from, newest seq at subscribe), with every
// gap counted in Dropped, which never decreases; and once the bus is
// closed and drained, each open subscription's delivered plus dropped
// events must equal the newest seq minus that starting point.
//
// The first byte picks the history capacity. Each later byte is an op
// (low two bits) and an argument (the rest): 0 publishes 1+arg%16
// events; 1 subscribes from seq arg with the next byte as the lag bound
// (0 = default); 2 reads up to 1+arg/8 events from subscription arg%8;
// 3 closes the bus (even arg) or subscription arg/2 (odd arg).
func FuzzBusResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		b := NewEventBus(1+int(data[0])%16, 0)
		var newest int64
		var subs []*busCursor
		for i := 1; i < len(data); i++ {
			op, arg := data[i]%4, int(data[i]/4)
			switch op {
			case 0:
				for n := 0; n < 1+arg%16; n++ {
					if seq := b.Publish(KindWindow, newest+1, newest+1); seq != 0 {
						newest = seq
					}
				}
			case 1:
				bound := 0
				if i+1 < len(data) {
					i++
					bound = int(data[i])
				}
				s, err := b.Subscribe(int64(arg), bound)
				if errors.Is(err, ErrTooManySubscribers) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				c := &busCursor{sub: s, base: min(int64(arg), newest)}
				c.checkDropped(t)
				subs = append(subs, c)
			case 2:
				if len(subs) == 0 {
					continue
				}
				c := subs[arg%8%len(subs)]
				for n := 0; n < 1+arg/8; n++ {
					ev, ok := c.sub.TryNext()
					if !ok {
						break
					}
					if c.closed {
						t.Fatalf("closed subscription delivered seq %d", ev.Seq)
					}
					c.read(t, ev)
				}
			case 3:
				if arg%2 == 0 {
					b.Close()
				} else if len(subs) > 0 {
					c := subs[arg/2%len(subs)]
					c.sub.Close()
					c.closed = true
				}
			}
			for _, c := range subs {
				c.checkDropped(t)
			}
		}

		b.Close()
		for _, c := range subs {
			if c.closed {
				continue
			}
			for {
				ev, err := c.sub.Next(context.Background())
				if errors.Is(err, ErrBusClosed) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				c.read(t, ev)
			}
			if got := c.delivered + c.dropped; got != newest-c.base {
				t.Fatalf("from %d: %d delivered + %d dropped, want %d", c.base, c.delivered, c.dropped, newest-c.base)
			}
		}
	})
}

// replayStates are the lifecycle states FuzzDecisionReplay records.
var replayStates = [...]PatchState{StateCandidate, StateDeployed, StateKept, StateRolledBack, StateBlocked, StateSwitched}

// FuzzDecisionReplay decodes bytes into decision records, one per byte
// c: region c%4 of four, target state c/4%6 of the six. The log must
// hold exactly one violation, in order, for each record whose (previous
// state of its region, target) pair LegalTransition rejects; each
// Decision.From must be its region's previous To, and State(region) the
// region's last To.
func FuzzDecisionReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewDecisionLog()
		last := map[uint64]PatchState{}
		var want []string
		for i, c := range data {
			region := 0x40 + 0x10*uint64(c%4)
			to := replayStates[int(c/4)%len(replayStates)]
			if !LegalTransition(last[region], to) {
				want = append(want, fmt.Sprintf("seq %d region %#x: ", i, region))
			}
			l.Record(int64(i), region, i, to, "fuzz", Evidence{})
			d := l.Decisions()[i]
			if d.Seq != i || d.From != last[region] || d.To != to {
				t.Fatalf("record %d: decision %+v, want from %q to %q", i, d, last[region], to)
			}
			last[region] = to
		}
		got := l.Violations()
		if len(got) != len(want) {
			t.Fatalf("%d violations %q, want %d", len(got), got, len(want))
		}
		for i := range want {
			if !strings.HasPrefix(got[i], want[i]) {
				t.Fatalf("violation %d = %q, want prefix %q", i, got[i], want[i])
			}
		}
		for region, s := range last {
			if l.State(region) != s {
				t.Fatalf("State(%#x) = %q, want %q", region, l.State(region), s)
			}
		}
	})
}
