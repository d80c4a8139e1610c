package mem

import (
	"fmt"
	"math/bits"
)

// Config describes one coherent machine memory system.
type Config struct {
	NumCPUs     int
	CPUsPerNode int  // CPUs sharing a NUMA node (ignored unless NUMA)
	NUMA        bool // cc-NUMA topology instead of a single shared bus

	// Nodes, when non-empty, declares the machine shape explicitly —
	// per-node CPU count and memory capacity, supporting asymmetric
	// NUMA topologies — overriding the uniform (NumCPUs, CPUsPerNode)
	// expansion. The declared CPUs must sum to NumCPUs. omitempty keeps
	// every legacy configuration's JSON encoding (and therefore every
	// scheduler/ledger content hash) byte-identical.
	Nodes []NodeConfig `json:",omitempty"`

	// Placement selects the page-placement policy (placement.go). The
	// zero value is first-touch, the only pre-matrix behaviour.
	Placement PlacementPolicy `json:",omitempty"`

	// BindNode is the target node of the bind policy (ignored otherwise).
	BindNode int `json:",omitempty"`

	L1D CacheConfig // integer loads only (FP bypasses L1D on Itanium 2)
	L2  CacheConfig
	L3  CacheConfig

	MSHRs int // outstanding misses per CPU; excess prefetches are dropped

	Lat LatencyParams

	PageSize uint64 // NUMA first-touch granularity
	MemBytes uint64 // simulated physical memory size
}

// Itanium2SMP returns the configuration of the paper's 4-way Itanium 2 SMP
// server: 16 KB L1D, 256 KB L2, 1.5 MB L3, 128-byte L2/L3 lines, MESI over
// a 6.4 GB/s front-side bus.
func Itanium2SMP(numCPUs int) Config {
	return Config{
		NumCPUs:     numCPUs,
		CPUsPerNode: numCPUs,
		NUMA:        false,
		L1D:         CacheConfig{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4},
		L2:          CacheConfig{Name: "L2", SizeBytes: 256 << 10, LineBytes: 128, Assoc: 8},
		L3:          CacheConfig{Name: "L3", SizeBytes: 1536 << 10, LineBytes: 128, Assoc: 12},
		MSHRs:       16,
		Lat: LatencyParams{
			// L2Hit is the *effective* blocking cost of an L2 hit: the
			// real 5-6 cycle latency is largely hidden by the in-order
			// pipeline's load-use scheduling, which this single-number
			// model approximates with a small stall.
			L1Hit: 1, L2Hit: 1, L3Hit: 12,
			Memory: 140, C2C: 190, Upgrade: 110, HopPenalty: 0,
			BusOccupancyData: 20, BusOccupancyCtl: 6,
		},
		PageSize: 16 << 10,
		MemBytes: 256 << 20,
	}
}

// AltixNUMA returns the configuration of the SGI Altix cc-NUMA system used
// in the paper: 2-CPU nodes joined by a fat-tree, with remote accesses and
// coherent misses costing substantially more than on the SMP.
func AltixNUMA(numCPUs int) Config {
	c := Itanium2SMP(numCPUs)
	c.CPUsPerNode = 2
	c.NUMA = true
	c.L3.SizeBytes = 3 << 20 // Altix 1.5 GHz parts carried larger L3s
	c.L3.Assoc = 12
	c.Lat = LatencyParams{
		L1Hit: 1, L2Hit: 1, L3Hit: 12,
		// Remote cache-line intervention on the Altix costs far more than
		// a remote memory fetch (the directory must forward to the owner
		// and retrieve dirty data), which is also what separates the DEAR
		// latency bands the optimizer's second-level filter relies on.
		Memory: 145, C2C: 300, Upgrade: 130,
		HopPenalty: 60, // each fat-tree hop adds substantial latency
		// NUMAlink moves a 128-byte line in ~40ns (~60 CPU cycles): far
		// less headroom than the front-side bus, so useless prefetch
		// traffic congests the links — the effect Figure 7 measures.
		BusOccupancyData: 56, BusOccupancyCtl: 8,
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumCPUs <= 0 {
		return fmt.Errorf("mem: NumCPUs %d", c.NumCPUs)
	}
	if c.NumCPUs > MaxTopologyCPUs {
		return fmt.Errorf("mem: NumCPUs %d exceeds %d", c.NumCPUs, MaxTopologyCPUs)
	}
	if c.NUMA && len(c.Nodes) == 0 && c.CPUsPerNode <= 0 {
		return fmt.Errorf("mem: CPUsPerNode %d", c.CPUsPerNode)
	}
	if err := c.validateTopology(); err != nil {
		return err
	}
	if c.L2.LineBytes != c.L3.LineBytes {
		return fmt.Errorf("mem: L2 line %d != L3 line %d (coherence granularity must match)",
			c.L2.LineBytes, c.L3.LineBytes)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("mem: MSHRs %d", c.MSHRs)
	}
	for _, cc := range []CacheConfig{c.L1D, c.L2, c.L3} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CPUStats are the per-CPU memory-system event counts. They are the raw
// material of the simulated hardware performance counters: the BUS_* fields
// correspond to the Itanium 2 events the paper uses to detect coherent
// memory accesses (§4), and L2/L3 misses back Figures 6 and 7.
type CPUStats struct {
	Loads             int64
	Stores            int64
	Prefetches        int64
	PrefetchesDropped int64

	L1Hits   int64
	L2Hits   int64
	L2Misses int64
	L3Hits   int64
	L3Misses int64

	Writebacks int64 // L3 castouts of Modified lines

	BusMemory         int64 // all system transactions (BUS_MEMORY)
	BusRdHit          int64 // read snooped clean in another cache (BUS_RD_HIT)
	BusRdHitm         int64 // read snooped Modified (BUS_RD_HITM)
	BusRdInvalAllHitm int64 // ownership read snooped Modified (BUS_RD_INVAL_ALL_HITM)
	BusUpgrades       int64 // invalidate-only upgrades

	CoherentMisses        int64 // demand misses served cache-to-cache or invalidating
	InvalidationsReceived int64 // lines stolen from this CPU by other CPUs

	DemandLatencyTotal int64 // total demand (load+store) stall cycles
	DemandAccesses     int64
}

// Add accumulates other into s.
func (s *CPUStats) Add(o CPUStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Prefetches += o.Prefetches
	s.PrefetchesDropped += o.PrefetchesDropped
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.L3Hits += o.L3Hits
	s.L3Misses += o.L3Misses
	s.Writebacks += o.Writebacks
	s.BusMemory += o.BusMemory
	s.BusRdHit += o.BusRdHit
	s.BusRdHitm += o.BusRdHitm
	s.BusRdInvalAllHitm += o.BusRdInvalAllHitm
	s.BusUpgrades += o.BusUpgrades
	s.CoherentMisses += o.CoherentMisses
	s.InvalidationsReceived += o.InvalidationsReceived
	s.DemandLatencyTotal += o.DemandLatencyTotal
	s.DemandAccesses += o.DemandAccesses
}

// CoherentRatio returns the fraction of system transactions that snooped
// another cache — the trigger metric of §4: (BUS_RD_HIT + BUS_RD_HITM +
// BUS_RD_INVAL_ALL_HITM) / BUS_MEMORY.
func (s CPUStats) CoherentRatio() float64 {
	if s.BusMemory == 0 {
		return 0
	}
	return float64(s.BusRdHit+s.BusRdHitm+s.BusRdInvalAllHitm) / float64(s.BusMemory)
}

// EventDelta is the set of PMU-visible event counts one access generated.
// Domain.Access reports it inside AccessResult so the simulated CPU can
// feed its PMU directly from the access that produced the events, instead
// of snapshotting and diffing full CPUStats around every access. Counts are
// tiny (an access produces at most two bus transactions: its own plus a
// castout), so single bytes suffice.
type EventDelta struct {
	L2Miss            uint8
	L3Miss            uint8
	Writebacks        uint8 // L3 castout of a Modified victim
	BusMemory         uint8
	BusRdHit          uint8
	BusRdHitm         uint8
	BusRdInvalAllHitm uint8
}

// Any reports whether the delta holds any event. Every event-bearing
// access misses L2 or issues a bus transaction — an L3 miss follows an L2
// miss, and castouts and snoop classes come with their BusMemory — so two
// fields decide it, and cache hits, the common case, cost one test.
func (e *EventDelta) Any() bool { return e.L2Miss|e.BusMemory != 0 }

// AccessResult reports the outcome of one memory access.
type AccessResult struct {
	Done     int64      // cycle the access completes (== issue cycle for prefetches)
	Latency  int64      // Done - issue cycle for demand ops; fill latency for prefetches
	Level    Level      // where the access was satisfied
	Coherent bool       // involved another CPU's cache (HITM supply or invalidation)
	BusTxn   bool       // issued a system transaction
	Dropped  bool       // prefetch discarded for want of an MSHR
	Ev       EventDelta // PMU-visible events this access generated
}

// hierarchy is one CPU's private cache stack.
type hierarchy struct {
	cpu  int
	l1   *cache
	l2   *cache
	l3   *cache
	mshr []int64 // completion times of outstanding fills
}

// Domain is the coherent memory system: all CPUs' cache hierarchies, the
// interconnect, and the backing memory, with MESI state kept consistent by
// snooping on every transaction.
type Domain struct {
	cfg      Config
	mem      *Memory
	icn      Interconnect
	hiers    []*hierarchy
	stats    []CPUStats
	lineMask uint64 // hoisted from cfg: applied on every access
	dir      directory

	// checker, when non-nil, re-validates the MESI invariants online after
	// every access (see EnableInvariantChecks in check.go).
	checker *invariantChecker
}

// NewDomain builds the memory system for cfg backed by memory m.
func NewDomain(cfg Config, m *Memory) (*Domain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var icn Interconnect
	if cfg.NUMA {
		icn = NewNUMANodes(cfg.Lat, cfg.NodeList())
	} else {
		icn = NewBus(cfg.Lat)
	}
	m.ConfigurePlacement(cfg.Placement, cfg.NodeList(), cfg.BindNode, icn.Hops)
	d := &Domain{
		cfg:      cfg,
		mem:      m,
		icn:      icn,
		stats:    make([]CPUStats, cfg.NumCPUs),
		lineMask: ^uint64(cfg.L2.LineBytes - 1),
		dir:      newDirectory(m.Size(), cfg.L3.LineBytes),
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		d.hiers = append(d.hiers, &hierarchy{
			cpu:  i,
			l1:   newCache(cfg.L1D),
			l2:   newCache(cfg.L2),
			l3:   newCache(cfg.L3),
			mshr: make([]int64, cfg.MSHRs),
		})
	}
	return d, nil
}

// Memory returns the backing memory.
func (d *Domain) Memory() *Memory { return d.mem }

// Config returns the domain configuration.
func (d *Domain) Config() Config { return d.cfg }

// Stats returns a copy of cpu's counters.
func (d *Domain) Stats(cpu int) CPUStats { return d.stats[cpu] }

// TotalStats sums all CPUs' counters.
func (d *Domain) TotalStats() CPUStats {
	var t CPUStats
	for i := range d.stats {
		t.Add(d.stats[i])
	}
	return t
}

// LineBytes returns the coherence granularity.
func (d *Domain) LineBytes() int { return d.cfg.L2.LineBytes }

// MigrateCPU remaps cpu onto node mid-run (scheduler affinity change).
// Only meaningful on the NUMA interconnect; the SMP bus has one node.
func (d *Domain) MigrateCPU(cpu, node int) error {
	n, ok := d.icn.(*NUMA)
	if !ok {
		return fmt.Errorf("mem: migration requires the NUMA interconnect (have %s)", d.icn.Name())
	}
	if cpu < 0 || cpu >= d.cfg.NumCPUs {
		return fmt.Errorf("mem: migrate CPU %d out of range [0, %d)", cpu, d.cfg.NumCPUs)
	}
	if node < 0 || node >= n.NumNodes() {
		return fmt.Errorf("mem: migrate to node %d out of range [0, %d)", node, n.NumNodes())
	}
	n.SetNodeOf(cpu, node)
	return nil
}

// snoop applies the coherence action of a transaction to every other
// hierarchy holding the line: reads downgrade remote M/E copies to Shared;
// ownership requests (ReadExcl/Upgrade) invalidate all remote copies.
// Modified data is implicitly written back by the owner when snooped. The
// holders come from the sharer directory, in ascending CPU order.
func (d *Domain) snoop(reqCPU int, addr uint64, exclusive bool) SnoopResult {
	var sr SnoopResult
	sr.OwnerCPU = -1
	holders := d.dir.sharers(addr) &^ (1 << uint(reqCPU))
	if holders == 0 {
		return sr
	}
	reqNode := d.icn.NodeOf(reqCPU)
	for m := holders; m != 0; m &= m - 1 {
		cpu := bits.TrailingZeros64(m)
		h := d.hiers[cpu]
		l3 := h.l3.peek(addr) // valid: the directory names L3 holders only
		l2 := h.l2.peek(addr)
		state := l3.state
		if l2 != nil && l2.state > state {
			state = l2.state
		}
		if hops := d.icn.Hops(reqNode, d.icn.NodeOf(cpu)); hops > sr.FarHops {
			sr.FarHops = hops
		}
		if state == Modified {
			sr.HitM = true
			sr.OwnerCPU = cpu
		} else {
			sr.HitClean = true
		}
		if exclusive {
			h.l1.invalidate(addr)
			if l2 != nil {
				l2.state = Invalid
			}
			l3.state = Invalid
			d.stats[cpu].InvalidationsReceived++
		} else {
			if l2 != nil {
				l2.state = Shared
			}
			l3.state = Shared
		}
	}
	if exclusive {
		d.dir.drop(addr, holders)
	}
	return sr
}

// l2Insert installs a line into L2, spilling a Modified victim into L3
// (inclusion guarantees the victim has an L3 entry).
func (d *Domain) l2Insert(h *hierarchy, addr uint64, state MESIState, readyAt int64) {
	victim, evicted := h.l2.insert(addr, state, readyAt)
	if !evicted {
		return
	}
	va := h.l2.victimAddr(victim)
	h.l1.invalidate(va)
	if victim.state == Modified {
		if l3 := h.l3.peek(va); l3 != nil {
			l3.state = Modified
		}
	}
}

// l3Insert installs a line into L3, casting out Modified victims to memory
// over the interconnect and back-invalidating inner levels (inclusion).
// Castout events accumulate into ev, charged to the accessing CPU.
func (d *Domain) l3Insert(h *hierarchy, ev *EventDelta, addr uint64, state MESIState, readyAt, now int64) {
	victim, evicted := h.l3.insert(addr, state, readyAt)
	d.dir.add(addr, h.cpu)
	if !evicted {
		return
	}
	va := h.l3.victimAddr(victim)
	d.dir.drop(va, 1<<uint(h.cpu))
	wasM := victim.state == Modified
	if found, innerM := h.l2.invalidate(va); found && innerM {
		wasM = true
	}
	h.l1.invalidate(va)
	if wasM {
		home := d.homeNode(va, h.cpu)
		d.icn.Transact(h.cpu, home, TxnWriteback, SnoopResult{}, now)
		ev.Writebacks++
		ev.BusMemory++
	}
}

func (d *Domain) homeNode(addr uint64, cpu int) int {
	if !d.cfg.NUMA {
		return 0
	}
	return d.mem.HomeNode(addr, d.icn.NodeOf(cpu))
}

// activeMSHRs counts fills still outstanding at cycle now.
func (h *hierarchy) activeMSHRs(now int64) int {
	n := 0
	for _, t := range h.mshr {
		if t > now {
			n++
		}
	}
	return n
}

func (h *hierarchy) claimMSHR(now, readyAt int64) bool {
	for i, t := range h.mshr {
		if t <= now {
			h.mshr[i] = readyAt
			return true
		}
	}
	return false
}

// Access performs one memory access by cpu at cycle now and writes its
// timing and event classification to res. Demand accesses block until
// data arrives; prefetches never block the issuing CPU.
//
// The PMU-visible events the access generated come back in res.Ev; the
// same deltas are folded into the per-CPU CPUStats here, in one place, so
// Stats and the sum of reported deltas can never disagree.
func (d *Domain) Access(cpu int, addr uint64, kind AccessKind, now int64, res *AccessResult) {
	*res = AccessResult{}
	st := &d.stats[cpu]
	d.access(d.hiers[cpu], st, addr, kind, now, res)
	if ev := &res.Ev; ev.Any() { // cache hits generate no events: skip the fold
		st.L2Misses += int64(ev.L2Miss)
		st.L3Misses += int64(ev.L3Miss)
		st.Writebacks += int64(ev.Writebacks)
		st.BusMemory += int64(ev.BusMemory)
		st.BusRdHit += int64(ev.BusRdHit)
		st.BusRdHitm += int64(ev.BusRdHitm)
		st.BusRdInvalAllHitm += int64(ev.BusRdInvalAllHitm)
	}
	if d.checker != nil {
		d.checkOnline(cpu, addr&d.lineMask, kind)
	}
}

// demand completes a demand access issued at now that finishes at done,
// satisfied at level, and charges its stall to st.
func (res *AccessResult) demand(st *CPUStats, now, done int64, level Level) {
	st.DemandAccesses++
	st.DemandLatencyTotal += done - now
	res.Done, res.Latency, res.Level = done, done-now, level
}

func (d *Domain) access(h *hierarchy, st *CPUStats, addr uint64, kind AccessKind, now int64, res *AccessResult) {
	la := addr & d.lineMask

	switch kind {
	case LoadInt, LoadFP, LoadBias:
		st.Loads++
	case Store:
		st.Stores++
	case PrefShrd, PrefExcl:
		st.Prefetches++
	}

	if kind.IsPrefetch() {
		d.prefetch(h, st, la, kind, now, res)
		return
	}

	wantsX := kind.wantsExclusive()

	// L1D: integer loads only, and only useful for non-exclusive access.
	if kind == LoadInt {
		if h.l1.lookup(la) != nil && h.l2.peek(la) != nil {
			st.L1Hits++
			res.demand(st, now, now+d.cfg.Lat.L1Hit, LvlL1)
			return
		}
	}

	// L2.
	if l2 := h.l2.lookup(la); l2 != nil {
		if !wantsX || l2.state == Modified || l2.state == Exclusive {
			if wantsX {
				l2.state = Modified
				if l3 := h.l3.peek(la); l3 != nil {
					l3.state = Modified
				}
			}
			done := now + d.cfg.Lat.L2Hit
			if kind == Store {
				done = now // owned line: the store buffer absorbs the write
			}
			if l2.readyAt > done {
				done = l2.readyAt // prefetch still in flight: partial hit
			}
			if kind == LoadInt {
				h.l1.insert(la, Shared, done)
			}
			st.L2Hits++
			res.demand(st, now, done, LvlL2)
			return
		}
		// Shared line, exclusive intent: upgrade.
		d.upgrade(h, st, la, now, res)
		return
	}
	res.Ev.L2Miss++

	// L3.
	if l3 := h.l3.lookup(la); l3 != nil {
		if !wantsX || l3.state == Modified || l3.state == Exclusive {
			if wantsX {
				l3.state = Modified
			}
			done := now + d.cfg.Lat.L3Hit
			if kind == Store {
				done = now // owned line: the store buffer absorbs the write
			}
			if l3.readyAt > done {
				done = l3.readyAt
			}
			d.l2Insert(h, la, l3.state, done)
			if kind == LoadInt {
				h.l1.insert(la, Shared, done)
			}
			st.L3Hits++
			res.demand(st, now, done, LvlL3)
			return
		}
		d.upgrade(h, st, la, now, res)
		return
	}
	res.Ev.L3Miss++

	// System transaction.
	d.fill(h, st, la, kind, now, false, res)
}

// upgrade performs an invalidate-only ownership upgrade of a Shared line.
func (d *Domain) upgrade(h *hierarchy, st *CPUStats, la uint64, now int64, res *AccessResult) {
	sr := d.snoop(h.cpu, la, true)
	home := d.homeNode(la, h.cpu)
	done := d.icn.Transact(h.cpu, home, TxnUpgrade, sr, now)
	res.Ev.BusMemory++
	st.BusUpgrades++
	res.Coherent = sr.HitClean || sr.HitM
	if res.Coherent {
		st.CoherentMisses++
	}
	if l3 := h.l3.peek(la); l3 != nil {
		l3.state = Modified
	}
	d.l2Insert(h, la, Modified, done)
	res.BusTxn = true
	res.demand(st, now, done, LvlL2)
}

// fill services a demand miss (or a prefetch when asPrefetch is true) with
// a system transaction and installs the line.
func (d *Domain) fill(h *hierarchy, st *CPUStats, la uint64, kind AccessKind, now int64, asPrefetch bool, res *AccessResult) {
	wantsX := kind.wantsExclusive()
	sr := d.snoop(h.cpu, la, wantsX)
	home := d.homeNode(la, h.cpu)

	txn := TxnRead
	if wantsX {
		txn = TxnReadExcl
	}
	done := d.icn.Transact(h.cpu, home, txn, sr, now)
	ev := &res.Ev
	ev.BusMemory++

	coherent := false
	level := LvlMemory
	switch {
	case sr.HitM && wantsX:
		ev.BusRdInvalAllHitm++
		coherent = true
		level = LvlRemote
	case sr.HitM:
		ev.BusRdHitm++
		coherent = true
		level = LvlRemote
	case sr.HitClean && wantsX:
		// Invalidation of clean copies: coherent traffic, data from memory.
		ev.BusRdHit++
		coherent = true
	case sr.HitClean:
		ev.BusRdHit++
		coherent = true
	}
	if coherent && !asPrefetch {
		st.CoherentMisses++
	}

	// Final state: stores install Modified; lfetch.excl and ld.bias
	// install Exclusive (ownership without dirtying — the following store
	// upgrades silently); reads install Exclusive when no other cache
	// holds the line, Shared otherwise.
	var state MESIState
	switch {
	case kind == Store:
		state = Modified
	case kind == PrefExcl || kind == LoadBias:
		state = Exclusive
	case sr.HitClean || sr.HitM:
		state = Shared
	default:
		state = Exclusive
	}

	d.l3Insert(h, ev, la, state, done, now)
	d.l2Insert(h, la, state, done)
	if kind == LoadInt {
		h.l1.insert(la, Shared, done)
	}

	res.Coherent, res.BusTxn = coherent, true
	if asPrefetch {
		res.Done, res.Latency, res.Level = now, done-now, level
		return
	}
	res.demand(st, now, done, level)
}

// prefetch handles lfetch/lfetch.excl: non-binding, non-blocking, dropped
// when no MSHR is free (as real lfetch is dropped when resources are
// exhausted).
func (d *Domain) prefetch(h *hierarchy, st *CPUStats, la uint64, kind AccessKind, now int64, res *AccessResult) {
	res.Done, res.Level = now, LvlNone
	// Already present (or being filled): nothing to do. An exclusive
	// prefetch of a line held Shared performs an upgrade.
	if l2 := h.l2.lookup(la); l2 != nil {
		if kind == PrefExcl && l2.state == Shared {
			d.prefetchUpgrade(h, st, la, now, res)
			l2.state = Exclusive
			if l3 := h.l3.peek(la); l3 != nil {
				l3.state = Exclusive
			}
			res.Level = LvlL2
		}
		return
	}
	res.Ev.L2Miss++ // the prefetch missed L2 (it may still hit L3)
	if l3 := h.l3.lookup(la); l3 != nil {
		if kind == PrefExcl && l3.state == Shared {
			d.prefetchUpgrade(h, st, la, now, res)
			l3.state = Exclusive
			d.l2Insert(h, la, Exclusive, now+d.cfg.Lat.L3Hit)
			res.Level = LvlL3
			return
		}
		d.l2Insert(h, la, l3.state, now+d.cfg.Lat.L3Hit)
		return
	}
	res.Ev.L3Miss++

	// Need a fill: claim an MSHR or drop.
	if h.activeMSHRs(now) >= len(h.mshr) {
		st.PrefetchesDropped++
		res.Dropped = true
		return
	}
	d.fill(h, st, la, kind, now, true, res)
	h.claimMSHR(now, now+res.Latency)
}

// prefetchUpgrade is the invalidate-only upgrade an lfetch.excl of a
// Shared line issues; the caller installs the Exclusive state.
func (d *Domain) prefetchUpgrade(h *hierarchy, st *CPUStats, la uint64, now int64, res *AccessResult) {
	sr := d.snoop(h.cpu, la, true)
	home := d.homeNode(la, h.cpu)
	d.icn.Transact(h.cpu, home, TxnUpgrade, sr, now)
	res.Ev.BusMemory++
	st.BusUpgrades++
	res.Coherent, res.BusTxn = sr.HitClean || sr.HitM, true
}

// Probe returns the MESI state of addr in cpu's hierarchy without touching
// LRU or timing state. Tests and the COBRA profiler use it.
func (d *Domain) Probe(cpu int, addr uint64) MESIState {
	h := d.hiers[cpu]
	la := addr & d.lineMask
	state := Invalid
	if l := h.l3.peek(la); l != nil {
		state = l.state
	}
	if l := h.l2.peek(la); l != nil && l.state > state {
		state = l.state
	}
	return state
}
