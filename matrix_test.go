package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
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
//     COBRA activity counters, decision log) equals its pinned value in
//     the "matrix" section of results/digests.json, so a host-side change
//     to the memory system or the run loop proves it moved no simulated
//     number on any machine shape.

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
					Run: func(context.Context) (workload.Measurement, error) {
						bc := workload.NUMANodesConfig(4, topo.nodes)
						bc.Machine.Mem.Placement = pl.policy
						if pl.policy == mem.PlaceBind {
							bc.Machine.Mem.BindNode = len(topo.nodes) - 1
						}
						cfg := cobra.DefaultConfig(cobra.StrategyAdaptive)
						bc.Cobra = &cfg
						c.obs = obs.New(obs.Config{Metrics: true, Decisions: true})
						bc.Obs = c.obs
						inst, err := workload.Build(wl.build(), bc)
						if err != nil {
							return workload.Measurement{}, err
						}
						return inst.Measure()
					},
				})
			}
		}
	}

	regen := os.Getenv("REGEN_GOLDEN") != ""
	var want map[string]matrixDigest
	if !regen {
		readPins(t, "matrix", &want)
	}
	digests := map[string]matrixDigest{}
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
			digests[c.name] = got
			if w, ok := want[c.name]; !regen && (!ok || got != w) {
				t.Errorf("digest drifted:\n got: %q: %#v,\nwant: %#v", c.name, got, w)
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
	if regen && !t.Failed() && len(digests) == len(cells) { // not under a -run filter
		writePins(t, "matrix", digests)
	}
}
