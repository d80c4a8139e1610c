// Adaptive re-adaptation demo: a workload whose behaviour changes
// mid-run. Phase 1 hammers a small, cache-resident window of a large
// array with 4 threads — aggressive prefetching causes coherent misses
// and COBRA's noprefetch patch wins. Phase 2 streams the whole array —
// prefetching is now essential, the patched loop regresses, and the
// continuous re-adaptation controller rolls the patch back.
//
// This is "Continuous Binary Re-Adaptation" in one run: patch, observe,
// revert. The workload itself lives in internal/workload (PhasedDaxpy)
// so tests and cobra-run can run the same program; run with
// `cobra-run -workload phased -trace -explain` to watch the lifecycle.
package main

import (
	"fmt"
	"log"

	"repro/internal/cobra"
	"repro/internal/workload"
)

func main() {
	fmt.Println("phase 1: cache-resident window (coherent misses dominate)")
	fmt.Println("phase 2: streaming the full array (prefetching essential)")
	bc := workload.SMPConfig(4)
	cfg := cobra.DefaultConfig(cobra.StrategyAdaptive)
	bc.Cobra = &cfg
	inst, err := workload.Build(workload.PhasedDaxpy(workload.PhasedDaxpyParams{}), bc)
	if err != nil {
		log.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		log.Fatal(err)
	}
	st := m.Cobra
	fmt.Printf("\ncycles=%d\n", m.Cycles)
	fmt.Printf("COBRA: samples=%d triggers=%d patches=%d rollbacks=%d nopped=%d\n",
		st.SamplesSeen, st.Triggers, st.PatchesApplied, st.PatchesRolledBack, st.PrefetchesNopped)
	switch {
	case st.PatchesApplied == 0:
		fmt.Println("(no patch was deployed — unexpected; try more phase-1 reps)")
	case st.PatchesRolledBack == 0:
		fmt.Println("patch survived both phases (no regression observed)")
	default:
		fmt.Println("re-adaptation: the phase-1 patch regressed in phase 2 and was rolled back")
	}
}
