package mem

// TxnKind classifies a system-level transaction emitted on an L3 miss or a
// coherence action.
type TxnKind uint8

const (
	TxnRead      TxnKind = iota // BRL: read line (shared intent)
	TxnReadExcl                 // BRIL: read line with invalidate (ownership)
	TxnUpgrade                  // BIL: invalidate-only upgrade S->M
	TxnWriteback                // BWL: cast out a Modified line to memory
)

func (k TxnKind) String() string {
	switch k {
	case TxnRead:
		return "BRL"
	case TxnReadExcl:
		return "BRIL"
	case TxnUpgrade:
		return "BIL"
	case TxnWriteback:
		return "BWL"
	}
	return "?"
}

// SnoopResult summarizes the other caches' responses to a transaction,
// mirroring the snoop phase of the Itanium 2 front-side bus.
type SnoopResult struct {
	HitClean bool // at least one other cache holds the line in S or E
	HitM     bool // another cache holds the line Modified
	OwnerCPU int  // CPU owning the Modified copy (valid when HitM)
	FarHops  int  // max interconnect hops to any responding sharer (NUMA)
}

// LatencyParams are the timing constants of one machine configuration, in
// CPU cycles. Defaults approximate the paper's two platforms: memory loads
// of 120–150 cycles and coherent misses exceeding 180–200 cycles on the
// SMP; substantially higher remote penalties on the Altix cc-NUMA.
type LatencyParams struct {
	L1Hit int64
	L2Hit int64
	L3Hit int64

	Memory     int64 // home memory access, same node
	HopPenalty int64 // added per interconnect hop (cc-NUMA only)
	C2C        int64 // cache-to-cache transfer (HITM), same node
	Upgrade    int64 // invalidate-only upgrade, same node

	BusOccupancyData int64 // bus busy time for a data transaction
	BusOccupancyCtl  int64 // bus busy time for an address-only transaction
}

// Interconnect computes the completion time of a transaction, accounting
// for its own contention state, and knows the CPU-to-node topology.
type Interconnect interface {
	// Transact returns the cycle at which the data (or ownership
	// acknowledgement) reaches reqCPU for a transaction issued at cycle
	// now. homeNode is the NUMA home of the line.
	Transact(reqCPU int, homeNode int, kind TxnKind, snoop SnoopResult, now int64) int64
	// NodeOf maps a CPU to its node.
	NodeOf(cpu int) int
	// Hops returns the interconnect distance between two nodes.
	Hops(a, b int) int
	// Name identifies the topology for reports.
	Name() string
}

// Bus is a single snooping front-side bus shared by all CPUs — the 4-way
// Itanium 2 SMP server. Transactions serialize on the bus: each occupies it
// for its occupancy window, and a transaction issued while the bus is busy
// waits. This is the mechanism by which aggressive prefetching "exerts
// tremendous stress on the system bus" (paper §1).
type Bus struct {
	lat       LatencyParams
	busyUntil int64
}

// NewBus returns a front-side bus with the given latency parameters.
func NewBus(lat LatencyParams) *Bus { return &Bus{lat: lat} }

func (b *Bus) Name() string      { return "smp-bus" }
func (b *Bus) NodeOf(int) int    { return 0 }
func (b *Bus) Hops(a, c int) int { return 0 }

func (b *Bus) Transact(reqCPU, homeNode int, kind TxnKind, snoop SnoopResult, now int64) int64 {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	occ := b.lat.BusOccupancyData
	var service int64
	switch kind {
	case TxnRead, TxnReadExcl:
		if snoop.HitM {
			service = b.lat.C2C // dirty line supplied cache-to-cache
		} else {
			service = b.lat.Memory
		}
	case TxnUpgrade:
		service = b.lat.Upgrade
		occ = b.lat.BusOccupancyCtl
	case TxnWriteback:
		service = b.lat.Memory / 2
	}
	b.busyUntil = start + occ
	return start + service
}

// NUMA models the SGI Altix: CPUsPerNode processors share a node-local bus
// and memory; nodes connect through a fat-tree whose distance grows
// logarithmically with the node count. Remote memory and especially remote
// cache-to-cache transfers cost substantially more than on the SMP — the
// reason the paper's optimizations gain more on the Altix.
type NUMA struct {
	lat      LatencyParams
	nodeOf   []int16 // CPU -> node table (mutable: mid-run migration)
	numNodes int
	linkBusy []int64 // per-node egress link contention
	memBusy  []int64 // per-node memory controller contention
}

// NewNUMANodes builds a cc-NUMA interconnect from an explicit — possibly
// asymmetric — node list: node i carries nodes[i].CPUs processors, with
// CPU ids assigned in node order. The fat-tree hop model is unchanged; an
// asymmetric shape only changes which CPUs share a node-local bus.
func NewNUMANodes(lat LatencyParams, nodes []NodeConfig) *NUMA {
	var table []int16
	for id, nc := range nodes {
		for i := 0; i < nc.CPUs; i++ {
			table = append(table, int16(id))
		}
	}
	return &NUMA{
		lat:      lat,
		nodeOf:   table,
		numNodes: len(nodes),
		linkBusy: make([]int64, len(nodes)),
		memBusy:  make([]int64, len(nodes)),
	}
}

func (n *NUMA) Name() string       { return "cc-numa" }
func (n *NUMA) NodeOf(cpu int) int { return int(n.nodeOf[cpu]) }

// NumNodes returns the node count.
func (n *NUMA) NumNodes() int { return n.numNodes }

// SetNodeOf remaps cpu onto node — a mid-run affinity migration. All
// subsequent transactions issued by cpu pay distances from its new node,
// and first-touch pages it faults home there: exactly the scenario that
// stresses DEAR attribution and the optimizer's judgement windows, since
// the profile a patch was judged on no longer describes the machine.
func (n *NUMA) SetNodeOf(cpu, node int) {
	n.nodeOf[cpu] = int16(node)
}

// Hops returns the fat-tree distance between nodes: 0 within a node, and
// 2*(1+log2 distance) across the tree (up to the common ancestor and down).
func (n *NUMA) Hops(a, b int) int {
	if a == b {
		return 0
	}
	d := a ^ b
	h := 0
	for d > 0 {
		h++
		d >>= 1
	}
	return 2 * h
}

func (n *NUMA) Transact(reqCPU, homeNode int, kind TxnKind, snoop SnoopResult, now int64) int64 {
	reqNode := n.NodeOf(reqCPU)
	start := now
	if n.linkBusy[reqNode] > start {
		start = n.linkBusy[reqNode]
	}
	occ := n.lat.BusOccupancyData
	var service int64
	switch kind {
	case TxnRead, TxnReadExcl:
		if snoop.HitM {
			ownerNode := n.NodeOf(snoop.OwnerCPU)
			service = n.lat.C2C + n.lat.HopPenalty*int64(n.Hops(reqNode, ownerNode))
		} else {
			service = n.lat.Memory + n.lat.HopPenalty*int64(n.Hops(reqNode, homeNode))
			if n.memBusy[homeNode] > start {
				start = n.memBusy[homeNode]
			}
			n.memBusy[homeNode] = start + occ
		}
	case TxnUpgrade:
		service = n.lat.Upgrade + n.lat.HopPenalty*int64(snoop.FarHops)
		occ = n.lat.BusOccupancyCtl
	case TxnWriteback:
		service = (n.lat.Memory + n.lat.HopPenalty*int64(n.Hops(reqNode, homeNode))) / 2
		if n.memBusy[homeNode] > start {
			start = n.memBusy[homeNode]
		}
		n.memBusy[homeNode] = start + occ
	}
	n.linkBusy[reqNode] = start + occ
	return start + service
}
