package mem

import "fmt"

// invariantChecker is the opt-in online MESI legality oracle: when enabled
// it re-validates the protocol invariants of invariant_test.go after every
// access, on the line the access touched, so a fuzz run fails at the exact
// access that broke coherence instead of in a post-mortem sweep.
//
// The checks mirror the offline predicates:
//
//	I1 (single writer): at most one cache holds a line Modified or
//	    Exclusive, and then no other cache holds it at all.
//	I2 (no stale owners): immediately after a store by CPU c, c holds the
//	    line Modified and every other cache holds Invalid.
//	I3 (monotone counters): statistics are non-negative and the miss
//	    taxonomy is self-consistent (L3 misses cannot exceed L2 misses).
//	I4 (inclusion): a line valid in a CPU's L2 is valid in its L3 — the
//	    premise that lets the sharer directory track L3 presence alone.
//	I5 (directory): the line's sharer mask names exactly the CPUs whose
//	    L3 holds it valid, as a brute-force peek of every L3 finds them.
//
// Violations are recorded up to a bound; the checker never panics, so a
// fault-injection run can assert graceful degradation and still read the
// full violation list afterwards.
type invariantChecker struct {
	max     int
	checks  int64
	dropped int64
	found   []string
}

// DefaultInvariantCap bounds recorded violations when no cap is given.
const DefaultInvariantCap = 64

// EnableInvariantChecks turns on online invariant checking, recording at
// most max violations (0 = DefaultInvariantCap). Enabling is idempotent
// and retroactively cheap: a disabled domain pays one nil check per
// access.
func (d *Domain) EnableInvariantChecks(max int) {
	if max <= 0 {
		max = DefaultInvariantCap
	}
	if d.checker == nil {
		d.checker = &invariantChecker{max: max}
		return
	}
	d.checker.max = max
}

// InvariantViolations returns the violations recorded so far (nil when
// checking is disabled or the run was clean).
func (d *Domain) InvariantViolations() []string {
	if d.checker == nil {
		return nil
	}
	return d.checker.found
}

// InvariantChecks returns how many online checks ran — a fuzz harness
// asserts this is non-zero so "no violations" cannot mean "checker never
// ran".
func (d *Domain) InvariantChecks() int64 {
	if d.checker == nil {
		return 0
	}
	return d.checker.checks
}

func (c *invariantChecker) record(format string, a ...any) {
	if len(c.found) >= c.max {
		c.dropped++
		return
	}
	c.found = append(c.found, fmt.Sprintf(format, a...))
}

// checkOnline validates the invariants touched by one access: I1, I4
// and I5 on the accessed line, I2 when the access was a store, and I3 on
// the accessing CPU's counters.
func (d *Domain) checkOnline(cpu int, la uint64, kind AccessKind) {
	c := d.checker
	c.checks++

	// I1: single writer on the touched line. The same brute-force peeks
	// of every hierarchy are the reference for I4 and I5.
	owners, holders := 0, 0
	ownerCPU := -1
	var inL3 uint64
	for _, h := range d.hiers {
		state := Invalid
		l3 := h.l3.peek(la)
		if l3 != nil {
			state = l3.state
			inL3 |= 1 << uint(h.cpu)
		}
		if l := h.l2.peek(la); l != nil {
			if l3 == nil {
				c.record("I4: line %#x valid in cpu%d's L2 but not its L3 after %v by cpu%d", la, h.cpu, kind, cpu)
			}
			if l.state > state {
				state = l.state
			}
		}
		switch state {
		case Modified, Exclusive:
			owners++
			holders++
			ownerCPU = h.cpu
		case Shared:
			holders++
		}
	}
	if owners > 1 {
		c.record("I1: line %#x has %d exclusive owners after %v by cpu%d", la, owners, kind, cpu)
	} else if owners == 1 && holders > 1 {
		c.record("I1: line %#x owner cpu%d coexists with %d holders after %v by cpu%d",
			la, ownerCPU, holders, kind, cpu)
	}

	// I5: the sharer directory agrees with the L3 tags.
	if dir := d.dir.sharers(la); dir != inL3 {
		c.record("I5: line %#x directory mask %#x, L3 holders %#x after %v by cpu%d", la, dir, inL3, kind, cpu)
	}

	// I2: a store leaves exactly one Modified copy, in the requester.
	if kind == Store {
		if s := d.Probe(cpu, la); s != Modified {
			c.record("I2: store by cpu%d left line %#x in %v", cpu, la, s)
		}
		for _, h := range d.hiers {
			if h.cpu == cpu {
				continue
			}
			if s := d.Probe(h.cpu, la); s != Invalid {
				c.record("I2: store by cpu%d left a %v copy of line %#x in cpu%d", cpu, s, la, h.cpu)
			}
		}
	}

	// I3: counter sanity for the accessing CPU.
	st := &d.stats[cpu]
	if st.L2Misses < 0 || st.L3Misses < 0 || st.BusMemory < 0 ||
		st.Writebacks < 0 || st.DemandLatencyTotal < 0 {
		c.record("I3: negative counter on cpu%d: %+v", cpu, *st)
	} else if st.L3Misses > st.L2Misses {
		c.record("I3: cpu%d L3 misses %d exceed L2 misses %d", cpu, st.L3Misses, st.L2Misses)
	}
}
