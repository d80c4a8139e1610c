// Quickstart: compile the paper's OpenMP DAXPY kernel for a simulated
// 4-way Itanium 2 SMP, run it three ways — untouched, under COBRA's
// noprefetch strategy, and under COBRA's lfetch.excl strategy — and print
// what the runtime optimizer saw and did.
package main

import (
	"fmt"
	"log"

	"repro/internal/cobra"
	"repro/internal/workload"
)

func measure(strategy *cobra.Config) (workload.Measurement, *workload.Instance) {
	w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: 128 << 10, OuterReps: 100})
	bc := workload.SMPConfig(4)
	bc.Cobra = strategy
	inst, err := workload.Build(w, bc)
	if err != nil {
		log.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		log.Fatal(err)
	}
	return m, inst
}

func main() {
	base, _ := measure(nil)
	fmt.Printf("baseline (icc-style aggressive prefetch): %d cycles\n", base.Cycles)
	fmt.Printf("  coherent snoops: %d dirty, %d ownership-steals, %d upgrades\n\n",
		base.Mem.BusRdHitm, base.Mem.BusRdInvalAllHitm, base.Mem.BusUpgrades)

	for _, s := range []cobra.Strategy{cobra.StrategyNoprefetch, cobra.StrategyExcl} {
		cfg := cobra.DefaultConfig(s)
		m, inst := measure(&cfg)
		fmt.Printf("COBRA %-14s %d cycles (%.1f%% vs baseline)\n",
			s.String()+":", m.Cycles, 100*float64(base.Cycles-m.Cycles)/float64(base.Cycles))
		fmt.Printf("  samples=%d triggers=%d patches=%d prefetches rewritten=%d traces=%d\n",
			m.Cobra.SamplesSeen, m.Cobra.Triggers, m.Cobra.PatchesApplied,
			m.Cobra.PrefetchesNopped+m.Cobra.PrefetchesExcl, m.Cobra.TracesEmitted)
		for _, vs := range inst.Cobra.ActiveDeployments() {
			v := vs.ActiveVariant()
			fmt.Printf("  patch: loop [%d,%d] in %s -> %s (%d lfetch sites, trace @%d)\n",
				vs.Region.Start, vs.Region.End, vs.Region.FuncName, v.Rewrite,
				v.RewrittenPrefetches, v.TraceEntry)
		}
		fmt.Println()
	}
}
