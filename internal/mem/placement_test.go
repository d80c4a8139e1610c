package mem

import (
	"hash/fnv"
	"reflect"
	"testing"
)

// placementDomain builds a NUMA domain over an explicit node list with a
// placement policy installed.
func placementDomain(t *testing.T, nodes []NodeConfig, policy PlacementPolicy, bindNode int) (*Domain, *Memory) {
	t.Helper()
	total := 0
	for _, n := range nodes {
		total += n.CPUs
	}
	cfg := AltixNUMA(total)
	cfg.MemBytes = 16 << 20
	cfg.Nodes = nodes
	cfg.Placement = policy
	cfg.BindNode = bindNode
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

// TestPlacementInterleaveRoundRobin: under interleave, page p homes on
// node p mod N regardless of which CPU touches it, and a contiguous page
// range spreads evenly (max imbalance one page) across every node count.
func TestPlacementInterleaveRoundRobin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []NodeConfig
	}{
		{"2-uniform", []NodeConfig{{CPUs: 2}, {CPUs: 2}}},
		{"3-asymmetric", []NodeConfig{{CPUs: 1}, {CPUs: 4}, {CPUs: 2}}},
		{"4-uniform", []NodeConfig{{CPUs: 2}, {CPUs: 2}, {CPUs: 2}, {CPUs: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m := placementDomain(t, tc.nodes, PlaceInterleave, 0)
			const pages = 100
			counts := make([]int, len(tc.nodes))
			for pg := uint64(1); pg <= pages; pg++ {
				addr := pg * 16384 // page size of the Altix config
				// Touch from an adversarial CPU: the last one, which under
				// first-touch would home everything on the last node.
				home := m.HomeNode(addr, totalCPUs(tc.nodes)-1)
				if want := int(pg % uint64(len(tc.nodes))); home != want {
					t.Fatalf("page %d homed on node %d, want %d", pg, home, want)
				}
				if peek := m.PeekHomeNode(addr); peek != home {
					t.Fatalf("page %d: PeekHomeNode %d != HomeNode %d", pg, peek, home)
				}
				counts[home]++
			}
			min, max := counts[0], counts[0]
			for _, c := range counts[1:] {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Fatalf("interleave spread uneven: %v", counts)
			}
		})
	}
}

func totalCPUs(nodes []NodeConfig) int {
	total := 0
	for _, n := range nodes {
		total += n.CPUs
	}
	return total
}

// TestPlacementBindSpill: bind homes every page on the bind node until its
// declared capacity runs out, then spills in (hops, node-id) order, and
// the whole assignment replays identically after ResetPlacement.
func TestPlacementBindSpill(t *testing.T) {
	// Node capacities in pages (16 KiB Altix pages): node 1 holds 2,
	// node 0 holds 1, node 2 is unbounded. Fat-tree hops from node 1:
	// node 0 is 2 hops (1^0=1), node 2 is 4 hops (1^2=3), so the spill
	// order is [1, 0, 2].
	nodes := []NodeConfig{
		{CPUs: 2, MemBytes: 1 * 16384},
		{CPUs: 2, MemBytes: 2 * 16384},
		{CPUs: 2},
	}
	_, m := placementDomain(t, nodes, PlaceBind, 1)
	want := []int{1, 1, 0, 2, 2, 2}
	assign := func() []int {
		var got []int
		for pg := uint64(1); pg <= uint64(len(want)); pg++ {
			got = append(got, m.HomeNode(pg*16384, 0))
		}
		return got
	}
	got := assign()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bind assignment = %v, want %v", got, want)
	}
	// Re-touching settled pages must not consume more capacity.
	if again := assign(); !reflect.DeepEqual(again, want) {
		t.Fatalf("bind re-read = %v, want %v", again, want)
	}
	// ResetPlacement restores both the page homes and the budgets.
	m.ResetPlacement()
	if replay := assign(); !reflect.DeepEqual(replay, want) {
		t.Fatalf("bind replay after reset = %v, want %v", replay, want)
	}
}

// TestPlacementBindExhaustionFallsBack: when every node's capacity is
// exhausted the page lands on the bind node — placement stays total and
// deterministic instead of faulting.
func TestPlacementBindExhaustionFallsBack(t *testing.T) {
	nodes := []NodeConfig{
		{CPUs: 1, MemBytes: 16384},
		{CPUs: 1, MemBytes: 16384},
	}
	_, m := placementDomain(t, nodes, PlaceBind, 0)
	homes := []int{}
	for pg := uint64(1); pg <= 4; pg++ {
		homes = append(homes, m.HomeNode(pg*16384, 0))
	}
	if want := []int{0, 1, 0, 0}; !reflect.DeepEqual(homes, want) {
		t.Fatalf("exhausted bind homes = %v, want %v", homes, want)
	}
}

// TestFirstTouchNodeListParity: a NUMA domain built from an explicit node
// list equal to the legacy uniform expansion behaves byte-identically to
// the legacy (NumCPUs, CPUsPerNode) domain — same access results, same
// counters, same home pages — pinned by a golden digest of the access
// stream so a regression in either path is caught even if both drift
// together.
func TestFirstTouchNodeListParity(t *testing.T) {
	const ncpu = 8
	legacyCfg := AltixNUMA(ncpu)
	legacyCfg.MemBytes = 16 << 20
	legacy := NewMemory(legacyCfg.MemBytes, legacyCfg.PageSize)
	dLegacy, err := NewDomain(legacyCfg, legacy)
	if err != nil {
		t.Fatal(err)
	}

	listCfg := AltixNUMA(ncpu)
	listCfg.MemBytes = 16 << 20
	listCfg.Nodes = legacyCfg.NodeList() // same shape, declared explicitly
	list := NewMemory(listCfg.MemBytes, listCfg.PageSize)
	dList, err := NewDomain(listCfg, list)
	if err != nil {
		t.Fatal(err)
	}

	// A deterministic mixed access stream: every CPU touches a strided,
	// partially overlapping working set with loads and stores.
	h := fnv.New64a()
	lcg := uint64(0x2545F4914F6CDD1D)
	now := int64(0)
	for i := 0; i < 2000; i++ {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		cpu := int(lcg>>33) % ncpu
		addr := 16384 + (lcg>>17)%(4<<20)
		kind := LoadFP
		if lcg%3 == 0 {
			kind = Store
		}
		r1 := access(dLegacy, cpu, addr, kind, now)
		r2 := access(dList, cpu, addr, kind, now)
		if r1 != r2 {
			t.Fatalf("access %d (cpu %d, addr %#x): legacy %+v != node-list %+v", i, cpu, addr, r1, r2)
		}
		if h1, h2 := legacy.PeekHomeNode(addr), list.PeekHomeNode(addr); h1 != h2 {
			t.Fatalf("access %d: home %d != %d", i, h1, h2)
		}
		now += int64(r1.Latency)
		h.Write([]byte{byte(r1.Latency), byte(r1.Level), byte(legacy.PeekHomeNode(addr))})
	}
	if !reflect.DeepEqual(dLegacy.TotalStats(), dList.TotalStats()) {
		t.Fatalf("stats diverged:\nlegacy: %+v\nlist:   %+v", dLegacy.TotalStats(), dList.TotalStats())
	}
	// Golden digest of (latency, level, home) per access. If this changes,
	// the NUMA timing model changed: regenerate deliberately, alongside the
	// results/ goldens.
	const golden = uint64(0xe841e401e7109411)
	if g := h.Sum64(); g != golden {
		t.Fatalf("access-stream digest %#x, want %#x", g, golden)
	}
}
