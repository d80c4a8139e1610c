package workload

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// irregularCases are the three irregular kernels at test-sized parameters,
// rebuilt fresh per cell (workload closures hold per-instance state).
func irregularCases() []struct {
	name  string
	build func() *Workload
} {
	return []struct {
		name  string
		build func() *Workload
	}{
		{"pointerchase", func() *Workload {
			return PointerChase(PointerChaseParams{Nodes: 1 << 11, Steps: 1 << 10, Reps: 2})
		}},
		{"hashjoin", func() *Workload {
			return HashJoin(HashJoinParams{Slots: 1 << 11, Probes: 1 << 10, Reps: 2})
		}},
		{"spmv", func() *Workload {
			return Spmv(SpmvParams{Rows: 256, Cols: 256, NNZPerRow: 4, Reps: 2})
		}},
	}
}

// TestIrregularWorkloadsVerify: each irregular kernel passes its
// self-check (build-time checksum oracle) on the SMP and on an asymmetric
// NUMA shape, at 1 and 4 worker threads. The oracle recomputes the result
// host-side per thread count, so a pass means the simulated kernel's
// checksums are identical to the host's for every cell.
func TestIrregularWorkloadsVerify(t *testing.T) {
	asym := []mem.NodeConfig{{CPUs: 1}, {CPUs: 3}}
	for _, tc := range irregularCases() {
		for _, threads := range []int{1, 4} {
			for _, shape := range []string{"smp", "numa-asym"} {
				t.Run(fmt.Sprintf("%s/%s/t%d", tc.name, shape, threads), func(t *testing.T) {
					bc := SMPConfig(threads)
					if shape == "numa-asym" {
						bc = NUMANodesConfig(threads, asym)
					}
					inst, err := Build(tc.build(), bc)
					if err != nil {
						t.Fatal(err)
					}
					if err := inst.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestIrregularAffinityPreservesResults: pinning threads to reversed CPUs
// relocates every thread (different caches, different NUMA nodes) but the
// kernels' checksums — which depend only on thread ids — must still pass.
func TestIrregularAffinityPreservesResults(t *testing.T) {
	for _, tc := range irregularCases() {
		t.Run(tc.name, func(t *testing.T) {
			bc := NUMANodesConfig(4, []mem.NodeConfig{{CPUs: 2}, {CPUs: 2}})
			bc.Affinity = []int{3, 2, 1, 0}
			inst, err := Build(tc.build(), bc)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIrregularMigrationPreservesResults: a mid-run CPU-to-node remap
// changes access latencies from that cycle on, never values.
func TestIrregularMigrationPreservesResults(t *testing.T) {
	for _, tc := range irregularCases() {
		t.Run(tc.name, func(t *testing.T) {
			bc := NUMANodesConfig(4, []mem.NodeConfig{{CPUs: 2}, {CPUs: 2}})
			bc.Machine.Migrations = []machine.Migration{{AtCycle: 10_000, CPU: 0, Node: 1}}
			inst, err := Build(tc.build(), bc)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
