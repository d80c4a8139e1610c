package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/cobra"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The declarative scenario matrix: every machine topology crossed with
// every placement policy and every irregular workload, each cell running
// the full adaptive COBRA loop through the scheduler. This is the
// `make matrix-smoke` payload (run there under -race): the cells execute
// concurrently on the worker pool, so the matrix doubles as a race probe
// over the machine-shape plane.
//
// Four invariants per cell:
//   - the kernel's build-time checksum oracle passes (Run returns nil);
//   - the decision-log lifecycle is legal (no orphaned judgements,
//     rollbacks of never-deployed patches, double deploys);
//   - every reported metric is finite — no NaN/Inf IPC or coherence
//     ratio regardless of how asymmetric the shape is;
//   - the cell's digest (simulated cycles, summed memory-system counters,
//     COBRA activity counters, decision log) equals its pinned value, so
//     a host-side change to the memory system or the run loop proves it
//     moved no simulated number on any machine shape.

// matrixDigest is the pinned outcome of one scenario-matrix cell.
type matrixDigest struct {
	Cycles    int64
	Mem       mem.CPUStats
	Cobra     cobra.Stats
	Decisions string // sha256 of the decision log's JSON
}

type matrixTopology struct {
	name  string
	nodes []mem.NodeConfig
}

type matrixPlacement struct {
	name   string
	policy mem.PlacementPolicy
}

type matrixWorkload struct {
	name  string
	build func() *workload.Workload
}

func scenarioTopologies() []matrixTopology {
	return []matrixTopology{
		{"2x2", []mem.NodeConfig{{CPUs: 2}, {CPUs: 2}}},
		{"1+3", []mem.NodeConfig{{CPUs: 1}, {CPUs: 3}}},
		{"1+1+2", []mem.NodeConfig{{CPUs: 1}, {CPUs: 1}, {CPUs: 2}}},
	}
}

func scenarioPlacements() []matrixPlacement {
	return []matrixPlacement{
		{"firsttouch", mem.PlaceFirstTouch},
		{"interleave", mem.PlaceInterleave},
		{"bind", mem.PlaceBind},
	}
}

func scenarioWorkloads() []matrixWorkload {
	return []matrixWorkload{
		{"pointerchase", func() *workload.Workload {
			return workload.PointerChase(workload.PointerChaseParams{Nodes: 1 << 11, Steps: 1 << 10, Reps: 2})
		}},
		{"hashjoin", func() *workload.Workload {
			return workload.HashJoin(workload.HashJoinParams{Slots: 1 << 11, Probes: 1 << 10, Reps: 2})
		}},
		{"spmv", func() *workload.Workload {
			return workload.Spmv(workload.SpmvParams{Rows: 256, Cols: 256, NNZPerRow: 4, Reps: 2})
		}},
	}
}

func TestScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("27-cell matrix; run via `make matrix-smoke` (or without -short)")
	}
	type cell struct {
		name string
		obs  *obs.Observer
	}
	var cells []*cell
	var jobs []sched.Job[workload.Measurement]
	for _, topo := range scenarioTopologies() {
		for _, pl := range scenarioPlacements() {
			for _, wl := range scenarioWorkloads() {
				topo, pl, wl := topo, pl, wl
				c := &cell{name: fmt.Sprintf("%s/%s/%s", topo.name, pl.name, wl.name)}
				cells = append(cells, c)
				jobs = append(jobs, sched.Job[workload.Measurement]{
					Name: c.name,
					Run: func() (workload.Measurement, error) {
						bc := workload.NUMANodesConfig(4, topo.nodes)
						bc.Machine.Mem.Placement = pl.policy
						if pl.policy == mem.PlaceBind {
							bc.Machine.Mem.BindNode = len(topo.nodes) - 1
						}
						cfg := cobra.DefaultConfig(cobra.StrategyAdaptive)
						cfg.SelfCheck = true
						bc.Cobra = &cfg
						c.obs = obs.New(obs.Config{Metrics: true, Decisions: true})
						bc.Obs = c.obs
						inst, err := workload.Build(wl.build(), bc)
						if err != nil {
							return workload.Measurement{}, err
						}
						m, err := inst.Measure()
						if err != nil {
							return m, err
						}
						if v := inst.Cobra.SelfCheckViolations(); len(v) != 0 {
							return m, fmt.Errorf("runtime self-check: %v", v)
						}
						return m, nil
					},
				})
			}
		}
	}

	results := sched.Run(jobs, sched.Options{Workers: 4})
	for i, res := range results {
		c := cells[i]
		t.Run(c.name, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Value.Cycles <= 0 {
				t.Fatalf("cycles = %d", res.Value.Cycles)
			}
			if v := c.obs.Decisions().Violations(); len(v) != 0 {
				t.Fatalf("decision-log violations: %v", v)
			}
			b, err := json.Marshal(c.obs.Decisions().Decisions())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := matrixDigest{Cycles: res.Value.Cycles, Mem: res.Value.Mem, Cobra: res.Value.Cobra,
				Decisions: hex.EncodeToString(sum[:])}
			if want, ok := wantMatrixDigests[c.name]; !ok || got != want {
				t.Errorf("digest drifted:\n got: %q: %#v,\nwant: %#v", c.name, got, want)
			}
			dump := c.obs.Metrics().Dump()
			for name, g := range dump.Gauges {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Errorf("gauge %s = %v", name, g)
				}
			}
			for name, h := range dump.Histograms {
				if math.IsNaN(h.Mean) || math.IsInf(h.Mean, 0) {
					t.Errorf("histogram %s mean = %v", name, h.Mean)
				}
			}
			for _, w := range dump.Windows {
				for name, g := range w.Gauges {
					if math.IsNaN(g) || math.IsInf(g, 0) {
						t.Errorf("window @%d gauge %s = %v", w.Cycle, name, g)
					}
				}
			}
		})
	}
}

// wantMatrixDigests pins every scenario-matrix cell.
var wantMatrixDigests = map[string]matrixDigest{
	"2x2/firsttouch/pointerchase": {
		Cycles:    1047878,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12361, L2Hits: 6837, L2Misses: 7501, L3Misses: 7501, BusMemory: 13874, BusRdHit: 685, BusRdHitm: 6371, BusRdInvalAllHitm: 116, BusUpgrades: 6373, CoherentMisses: 13329, InvalidationsReceived: 6572, DemandLatencyTotal: 4000668, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 192, OptimizerPasses: 20, Triggers: 18, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "01802d3771fe6b49694d5ae416d223aa5f7de544d56c2c6bf49797ed775588f8",
	},
	"2x2/firsttouch/hashjoin": {
		Cycles:    74698,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 222876, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"2x2/firsttouch/spmv": {
		Cycles:    20002,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 61564, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"2x2/interleave/pointerchase": {
		Cycles:    1052229,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12308, L2Hits: 6777, L2Misses: 7564, L3Misses: 7564, BusMemory: 13987, BusRdHit: 694, BusRdHitm: 6422, BusRdInvalAllHitm: 119, BusUpgrades: 6423, CoherentMisses: 13442, InvalidationsReceived: 6635, DemandLatencyTotal: 4052687, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 203, OptimizerPasses: 21, Triggers: 19, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "0bcd7f0981a314fdfa7ede1100df73f7660522160ff83e0eeaf083a0285ef1f0",
	},
	"2x2/interleave/hashjoin": {
		Cycles:    60465,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 215271, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"2x2/interleave/spmv": {
		Cycles:    17821,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 54610, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"2x2/bind/pointerchase": {
		Cycles:    1057983,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12289, L2Hits: 6802, L2Misses: 7562, L3Misses: 7562, BusMemory: 13982, BusRdHit: 691, BusRdHitm: 6419, BusRdInvalAllHitm: 123, BusUpgrades: 6420, CoherentMisses: 13436, InvalidationsReceived: 6633, DemandLatencyTotal: 4041322, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 201, OptimizerPasses: 21, Triggers: 19, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "e741cdb042c8fd9d8320d7977123d97947bae16f17b9694f122a301838727990",
	},
	"2x2/bind/hashjoin": {
		Cycles:    76163,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 222979, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"2x2/bind/spmv": {
		Cycles:    19656,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 59716, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/firsttouch/pointerchase": {
		Cycles:    1017886,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12401, L2Hits: 7235, L2Misses: 7303, L3Misses: 7303, BusMemory: 13436, BusRdHit: 698, BusRdHitm: 6132, BusRdInvalAllHitm: 144, BusUpgrades: 6133, CoherentMisses: 12891, InvalidationsReceived: 6374, DemandLatencyTotal: 3605422, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 179, OptimizerPasses: 20, Triggers: 18, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "55104bc7d6a217900998880c76f83c5d8469c3c4866fbcc6c062ac8696ff7082",
	},
	"1+3/firsttouch/hashjoin": {
		Cycles:    73460,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 246079, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/firsttouch/spmv": {
		Cycles:    19484,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 61566, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/interleave/pointerchase": {
		Cycles:    972921,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12428, L2Hits: 7351, L2Misses: 7205, L3Misses: 7205, BusMemory: 13293, BusRdHit: 673, BusRdHitm: 6087, BusRdInvalAllHitm: 116, BusUpgrades: 6088, CoherentMisses: 12748, InvalidationsReceived: 6276, DemandLatencyTotal: 3516295, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 175, OptimizerPasses: 19, Triggers: 17, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "2a94329ca3c48029e918141809fb0956160dd2467f4e229a0f800508a7ebd241",
	},
	"1+3/interleave/hashjoin": {
		Cycles:    61699,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 218919, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/interleave/spmv": {
		Cycles:    17942,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 56516, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/bind/pointerchase": {
		Cycles:    971818,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12445, L2Hits: 7357, L2Misses: 7187, L3Misses: 7187, BusMemory: 13270, BusRdHit: 672, BusRdHitm: 6082, BusRdInvalAllHitm: 104, BusUpgrades: 6083, CoherentMisses: 12725, InvalidationsReceived: 6258, DemandLatencyTotal: 3490398, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 173, OptimizerPasses: 19, Triggers: 17, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "13296b38fb0625286fe39963e89cdc46a61b2c74c6fbb1e36b270a79eaa19c58",
	},
	"1+3/bind/hashjoin": {
		Cycles:    77891,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 214368, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+3/bind/spmv": {
		Cycles:    20216,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 59300, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/firsttouch/pointerchase": {
		Cycles:    1431129,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12321, L2Hits: 6877, L2Misses: 7498, L3Misses: 7498, BusMemory: 13875, BusRdHit: 686, BusRdHitm: 6377, BusRdInvalAllHitm: 106, BusUpgrades: 6377, CoherentMisses: 13329, InvalidationsReceived: 6569, DemandLatencyTotal: 5360446, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 265, OptimizerPasses: 28, Triggers: 26, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "149caaeec6404619445c4dfafd749ec560699715d8cdb04bda25bf2e0a10eda1",
	},
	"1+1+2/firsttouch/hashjoin": {
		Cycles:    99962,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 299876, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/firsttouch/spmv": {
		Cycles:    21554,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 63365, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/interleave/pointerchase": {
		Cycles:    1414855,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12336, L2Hits: 6931, L2Misses: 7470, L3Misses: 7470, BusMemory: 13805, BusRdHit: 692, BusRdHitm: 6332, BusRdInvalAllHitm: 117, BusUpgrades: 6335, CoherentMisses: 13260, InvalidationsReceived: 6541, DemandLatencyTotal: 5281554, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 264, OptimizerPasses: 28, Triggers: 26, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "b34d6af954cba45a82edadfbdb06dc52724012ad9e8cc77c37eddd987d523f0a",
	},
	"1+1+2/interleave/hashjoin": {
		Cycles:    83475,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 278509, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 8, OptimizerPasses: 1},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/interleave/spmv": {
		Cycles:    19108,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 56067, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/bind/pointerchase": {
		Cycles:    1389539,
		Mem:       mem.CPUStats{Loads: 24584, Stores: 8200, Prefetches: 4132, L1Hits: 12408, L2Hits: 7238, L2Misses: 7270, L3Misses: 7270, BusMemory: 13426, BusRdHit: 676, BusRdHitm: 6154, BusRdInvalAllHitm: 111, BusUpgrades: 6156, CoherentMisses: 12881, InvalidationsReceived: 6341, DemandLatencyTotal: 5038383, DemandAccesses: 32784},
		Cobra:     cobra.Stats{SamplesSeen: 249, OptimizerPasses: 27, Triggers: 25, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "2860b1c4a3cdfab09a0f98dbe648941e2688f5f943fc0e76ca5fe877f25df3be",
	},
	"1+1+2/bind/hashjoin": {
		Cycles:    102189,
		Mem:       mem.CPUStats{Loads: 7082, Stores: 8, L1Hits: 4586, L2Hits: 1566, L2Misses: 938, L3Misses: 938, BusMemory: 938, BusRdHit: 612, BusRdInvalAllHitm: 7, CoherentMisses: 619, InvalidationsReceived: 7, DemandLatencyTotal: 274179, DemandAccesses: 7090},
		Cobra:     cobra.Stats{SamplesSeen: 12, OptimizerPasses: 2},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
	"1+1+2/bind/spmv": {
		Cycles:    21760,
		Mem:       mem.CPUStats{Loads: 6934, Stores: 512, Prefetches: 13156, PrefetchesDropped: 8, L1Hits: 2909, L2Hits: 4437, L2Misses: 301, L3Misses: 301, BusMemory: 293, BusRdHit: 120, CoherentMisses: 51, DemandLatencyTotal: 61046, DemandAccesses: 7446},
		Cobra:     cobra.Stats{},
		Decisions: "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	},
}
