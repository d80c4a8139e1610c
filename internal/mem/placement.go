package mem

import "fmt"

// PlacementPolicy selects how physical pages are assigned NUMA home nodes.
// The zero value is first-touch — the SGI Altix default the paper relies
// on and the only policy that existed before the scenario matrix — so
// every legacy configuration keeps its semantics and its JSON encoding
// (the field is omitempty) byte-identical.
type PlacementPolicy string

const (
	// PlaceFirstTouch homes a page on the node of the CPU that first
	// accesses it (the legacy behaviour; "" and "first-touch" are the
	// same policy, "" being the canonical stored spelling).
	PlaceFirstTouch PlacementPolicy = ""
	// PlaceInterleave homes page p on node p mod N — round-robin by page
	// index, the classic bandwidth-spreading policy. Pure function of the
	// address, so it ignores capacity limits and touch order.
	PlaceInterleave PlacementPolicy = "interleave"
	// PlaceBind homes every page on BindNode until that node's declared
	// capacity is exhausted, then spills to the nearest neighbour (by
	// interconnect hops, ties broken by lower node id) with capacity
	// remaining — the numactl --membind model with deterministic
	// overflow. If every node is full the page lands on BindNode anyway:
	// the simulation stays deterministic rather than faulting.
	PlaceBind PlacementPolicy = "bind"
)

// Valid reports whether p is a known policy.
func (p PlacementPolicy) Valid() bool {
	switch p {
	case PlaceFirstTouch, PlaceInterleave, PlaceBind:
		return true
	}
	return false
}

// NodeConfig describes one NUMA node of a declarative machine shape: how
// many processors it carries and how much node-local memory it can home.
// MemBytes 0 means unbounded (no capacity accounting for the node).
type NodeConfig struct {
	CPUs     int
	MemBytes uint64 `json:",omitempty"`
}

// MaxTopologyCPUs bounds the CPU count of every machine shape. 64 opens
// the asymmetric shapes the scenario matrix sweeps while keeping a single
// validated spec's machine affordable, and it is the width of the sharer
// directory's uint64 mask and of the CPU field of the run loop's leader
// key (internal/machine).
const MaxTopologyCPUs = 64

// NodeList resolves the configuration's machine shape to an explicit node
// list. A declared Nodes list is returned as-is; otherwise the legacy
// (NumCPUs, CPUsPerNode, NUMA) triple is expanded: one all-CPU node on
// the SMP, ceil(NumCPUs/CPUsPerNode) uniform nodes on the NUMA machine —
// exactly the shapes NewNUMA has always built, so legacy configurations
// resolve to topologies with identical CPU→node maps.
func (c Config) NodeList() []NodeConfig {
	if len(c.Nodes) > 0 {
		out := make([]NodeConfig, len(c.Nodes))
		copy(out, c.Nodes)
		return out
	}
	if !c.NUMA {
		return []NodeConfig{{CPUs: c.NumCPUs}}
	}
	var out []NodeConfig
	for remaining := c.NumCPUs; remaining > 0; remaining -= c.CPUsPerNode {
		n := c.CPUsPerNode
		if n > remaining {
			n = remaining
		}
		out = append(out, NodeConfig{CPUs: n})
	}
	return out
}

// NumNodes returns the node count of the resolved machine shape.
func (c Config) NumNodes() int { return len(c.NodeList()) }

// validateTopology checks the declarative shape and placement fields.
func (c Config) validateTopology() error {
	if len(c.Nodes) > 0 {
		total := 0
		for i, n := range c.Nodes {
			if n.CPUs <= 0 {
				return fmt.Errorf("mem: node %d has %d CPUs", i, n.CPUs)
			}
			total += n.CPUs
		}
		if total != c.NumCPUs {
			return fmt.Errorf("mem: node list carries %d CPUs, config says %d", total, c.NumCPUs)
		}
		if len(c.Nodes) > 1 && !c.NUMA {
			return fmt.Errorf("mem: %d-node topology requires NUMA", len(c.Nodes))
		}
	}
	if !c.Placement.Valid() {
		return fmt.Errorf("mem: unknown placement policy %q", c.Placement)
	}
	if c.Placement != PlaceFirstTouch && !c.NUMA {
		return fmt.Errorf("mem: placement %q requires NUMA (SMP homes every page on node 0)", c.Placement)
	}
	if c.Placement == PlaceBind {
		if n := c.NumNodes(); c.BindNode < 0 || c.BindNode >= n {
			return fmt.Errorf("mem: bind node %d out of range [0, %d)", c.BindNode, n)
		}
	} else if c.BindNode != 0 {
		return fmt.Errorf("mem: BindNode %d set without placement %q", c.BindNode, PlaceBind)
	}
	return nil
}

// placement is the memory-side placement engine state. The zero value is
// single-node first-touch — what every Memory had before the scenario
// matrix — so NewMemory callers that never configure placement are
// untouched.
type placement struct {
	policy   PlacementPolicy
	numNodes int
	bindNode int16

	// capPages is the remaining page budget per node (-1 = unbounded);
	// initCap preserves the configured budgets for ResetPlacement.
	capPages []int64
	initCap  []int64

	// spill is the bind policy's node probe order: BindNode first, then
	// every other node sorted by (hops from BindNode, node id).
	spill []int16
}

// ConfigurePlacement installs a placement policy over the memory's pages.
// nodes declares per-node capacity (MemBytes 0 = unbounded); hops is the
// interconnect distance function used to order bind-policy spill targets
// (nil falls back to node-id distance). Must be called before simulation
// touches memory; NewDomain does it during machine construction.
func (m *Memory) ConfigurePlacement(policy PlacementPolicy, nodes []NodeConfig, bindNode int, hops func(a, b int) int) {
	p := &m.place
	p.policy = policy
	p.numNodes = len(nodes)
	if p.numNodes == 0 {
		p.numNodes = 1
	}
	p.bindNode = int16(bindNode)
	p.capPages = make([]int64, p.numNodes)
	p.initCap = make([]int64, p.numNodes)
	for i := range p.capPages {
		cap := int64(-1)
		if i < len(nodes) && nodes[i].MemBytes > 0 {
			cap = int64(nodes[i].MemBytes / m.pageSize)
		}
		p.capPages[i] = cap
		p.initCap[i] = cap
	}
	if policy == PlaceBind {
		p.spill = spillOrder(p.numNodes, bindNode, hops)
	}
}

// spillOrder returns every node ordered by (hops from origin, node id),
// origin first — the deterministic probe sequence bind overflow follows.
func spillOrder(numNodes, origin int, hops func(a, b int) int) []int16 {
	if hops == nil {
		hops = func(a, b int) int {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d
		}
	}
	order := make([]int16, 0, numNodes)
	taken := make([]bool, numNodes)
	for len(order) < numNodes {
		best, bestHops := -1, 0
		for n := 0; n < numNodes; n++ {
			if taken[n] {
				continue
			}
			h := hops(origin, n)
			if best == -1 || h < bestHops {
				best, bestHops = n, h
			}
		}
		taken[best] = true
		order = append(order, int16(best))
	}
	return order
}

// assignBind picks the home for a newly touched page under the bind
// policy: the first node in spill order with capacity remaining. A fully
// exhausted machine falls back to the bind node itself so placement stays
// total and deterministic.
func (p *placement) assignBind() int16 {
	for _, n := range p.spill {
		if p.capPages[n] != 0 {
			if p.capPages[n] > 0 {
				p.capPages[n]--
			}
			return n
		}
	}
	return p.bindNode
}
