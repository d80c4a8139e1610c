// Package hpm models the Itanium 2 hardware performance monitoring unit
// (PMU) that COBRA's monitoring threads sample: four programmable event
// counters with overflow-driven sampling, the Branch Trace Buffer (BTB)
// holding the last four taken branch/target pairs, and the Data Event
// Address Registers (DEAR) that capture (instruction, data address,
// latency) tuples for long-latency loads with a programmable latency
// filter — the mechanism §4 of the paper uses to separate coherent misses
// from ordinary memory misses.
package hpm

// Event identifies a monitorable performance event. The set mirrors the
// events the paper names plus the bookkeeping events any PMU provides.
type Event uint8

const (
	EvNone Event = iota
	EvCPUCycles
	EvInstRetired
	EvL2Misses
	EvL3Misses
	EvL3Writebacks
	EvBusMemory         // BUS_MEMORY: all system bus transactions
	EvBusRdHit          // BUS_RD_HIT: snooped clean in another cache
	EvBusRdHitm         // BUS_RD_HITM: snooped Modified in another cache
	EvBusRdInvalAllHitm // BUS_RD_INVAL_ALL_HITM: ownership read snooped Modified
	EvBusCoherent       // BUS_RD_HITM + BUS_RD_INVAL_ALL_HITM (combined unit mask)
	EvLoadsRetired
	EvStoresRetired
	EvPrefetchesRetired
	EvTakenBranches

	NumEvents
)

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "EV_?"
}

var eventNames = [...]string{
	EvNone:              "NONE",
	EvCPUCycles:         "CPU_CYCLES",
	EvInstRetired:       "IA64_INST_RETIRED",
	EvL2Misses:          "L2_MISSES",
	EvL3Misses:          "L3_MISSES",
	EvL3Writebacks:      "L3_WRITEBACKS",
	EvBusMemory:         "BUS_MEMORY",
	EvBusRdHit:          "BUS_RD_HIT",
	EvBusRdHitm:         "BUS_RD_HITM",
	EvBusRdInvalAllHitm: "BUS_RD_INVAL_ALL_HITM",
	EvBusCoherent:       "BUS_COHERENT_SNOOPS",
	EvLoadsRetired:      "LOADS_RETIRED",
	EvStoresRetired:     "STORES_RETIRED",
	EvPrefetchesRetired: "PREFETCHES_RETIRED",
	EvTakenBranches:     "BR_TAKEN",
}

// NumCounters is the number of programmable counters (PMD4-7 on Itanium 2).
const NumCounters = 4

// BTBEntries is the depth of the branch trace buffer: four branch/target
// pairs, read out as eight addresses per sample (paper §3.1).
const BTBEntries = 4

// Counter is one programmable performance counter.
type Counter struct {
	Event  Event
	Value  int64
	Period int64 // sampling period; 0 disables overflow
	armed  int64 // countdown to next overflow
}

// BranchPair is one BTB entry.
type BranchPair struct {
	BranchPC int
	TargetPC int
}

// DEARSample is one data-event-address-register capture.
type DEARSample struct {
	PC      int    // instruction address of the missing load
	Addr    uint64 // data address
	Latency int64  // observed load latency in cycles
	Valid   bool
}

// OverflowHandler is invoked synchronously when a programmed counter
// crosses its sampling period. slot identifies the counter.
type OverflowHandler func(slot int, ev Event)

// PMU is the per-CPU performance monitoring unit.
type PMU struct {
	CPU int

	counters [NumCounters]Counter

	btb    [BTBEntries]BranchPair
	btbPos int
	btbLen int

	dearMinLatency int64 // latency filter: record only loads at least this slow
	dear           DEARSample

	overflow OverflowHandler

	// slotOf[ev] is 1+slot of the counter tracking ev, or 0. At most one
	// counter may track a given event; this makes Add O(1), which matters
	// because the machine feeds every retired instruction through it.
	slotOf [NumEvents]int8
}

// NewPMU returns a PMU for the given CPU with all counters idle.
func NewPMU(cpu int) *PMU { return &PMU{CPU: cpu} }

// Program configures counter slot to count ev, overflowing every period
// events (0 = count without sampling). Programming clears the counter.
// A PMU tracks each event in at most one counter; programming an event
// already assigned elsewhere moves it.
func (p *PMU) Program(slot int, ev Event, period int64) {
	old := p.counters[slot].Event
	if old != EvNone && int(p.slotOf[old]) == slot+1 {
		p.slotOf[old] = 0
	}
	if prev := p.slotOf[ev]; ev != EvNone && prev != 0 {
		p.counters[prev-1] = Counter{}
	}
	p.counters[slot] = Counter{Event: ev, Period: period, armed: period}
	if ev != EvNone {
		p.slotOf[ev] = int8(slot + 1)
	}
}

// SetOverflowHandler registers the sampling driver's overflow callback.
func (p *PMU) SetOverflowHandler(h OverflowHandler) { p.overflow = h }

// SetDEARFilter programs the DEAR latency threshold: only loads with
// latency >= minLatency are captured. The latency filter is the paper's
// tool for skipping L2-misses-that-hit-L3 (threshold just above L3 hit
// latency) and for isolating coherent misses (threshold above memory
// latency).
func (p *PMU) SetDEARFilter(minLatency int64) {
	p.dearMinLatency = minLatency
	p.dear = DEARSample{}
}

// Add counts n occurrences of ev, firing overflow handlers as periods
// cross. The untracked-event check comes first: it is the common case on
// the simulator's per-instruction path (unmonitored runs program no
// counters), and none of the checks' order is observable.
func (p *PMU) Add(ev Event, n int64) {
	slot := p.slotOf[ev]
	if slot == 0 || n == 0 {
		return
	}
	c := &p.counters[slot-1]
	c.Value += n
	if c.Period > 0 {
		c.armed -= n
		for c.armed <= 0 {
			c.armed += c.Period
			if p.overflow != nil {
				p.overflow(int(slot-1), ev)
			}
		}
	}
}

// Read returns the current value of counter slot.
func (p *PMU) Read(slot int) (Event, int64) {
	return p.counters[slot].Event, p.counters[slot].Value
}

// ReadAll snapshots all four counters.
func (p *PMU) ReadAll() [NumCounters]Counter {
	return p.counters
}

// RecordBranch pushes a taken branch into the BTB ring.
func (p *PMU) RecordBranch(brPC, targetPC int) {
	p.btb[p.btbPos] = BranchPair{BranchPC: brPC, TargetPC: targetPC}
	p.btbPos = (p.btbPos + 1) % BTBEntries
	if p.btbLen < BTBEntries {
		p.btbLen++
	}
}

// ReadBTB returns the last taken branches, oldest first.
func (p *PMU) ReadBTB() []BranchPair {
	out := make([]BranchPair, 0, p.btbLen)
	for i := 0; i < p.btbLen; i++ {
		idx := (p.btbPos - p.btbLen + i + BTBEntries*2) % BTBEntries
		out = append(out, p.btb[idx])
	}
	return out
}

// RecordLoad offers a demand-load completion to the DEAR. Loads below the
// latency threshold are ignored; the most recent qualifying load is held
// until read.
func (p *PMU) RecordLoad(pc int, addr uint64, latency int64) {
	if latency < p.dearMinLatency {
		return
	}
	p.dear = DEARSample{PC: pc, Addr: addr, Latency: latency, Valid: true}
}

// ReadDEAR returns the latest DEAR capture and clears its valid bit.
func (p *PMU) ReadDEAR() DEARSample {
	s := p.dear
	p.dear.Valid = false
	return s
}
