// NUMA LU demo: run the LU simulated-CFD application on the Altix-like
// cc-NUMA model, where coherent misses cost the most, and compare the
// untouched binary with COBRA's noprefetch strategy — the configuration
// behind the paper's Figure 5(b). (In the paper CG shows the largest
// Altix gain; in this scaled-down simulator LU does — see EXPERIMENTS.md
// for the full per-benchmark comparison.)
package main

import (
	"fmt"
	"log"

	"repro/internal/cobra"
	"repro/internal/npb"
	"repro/internal/workload"
)

func run(strategy *cobra.Config) workload.Measurement {
	w, err := npb.Build("lu", npb.Params{Class: npb.ClassS})
	if err != nil {
		log.Fatal(err)
	}
	bc := workload.NUMAConfig(8)
	bc.Cobra = strategy
	inst, err := workload.Build(w, bc)
	if err != nil {
		log.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	base := run(nil)
	cfg := cobra.DefaultConfig(cobra.StrategyNoprefetch)
	// On cc-NUMA the DEAR coherent-latency filter must sit above the
	// remote memory latency (§4's two-level filtering).
	cfg.CoherentLatency = 420
	opt := run(&cfg)

	fmt.Println("LU class S on the 8-CPU cc-NUMA model (2 CPUs per node):")
	fmt.Printf("  baseline:          %12d cycles   l3miss=%-8d bus=%-8d dirty-snoops=%d\n",
		base.Cycles, base.Mem.L3Misses, base.Mem.BusMemory,
		base.Mem.BusRdHitm+base.Mem.BusRdInvalAllHitm)
	fmt.Printf("  cobra noprefetch:  %12d cycles   l3miss=%-8d bus=%-8d dirty-snoops=%d\n",
		opt.Cycles, opt.Mem.L3Misses, opt.Mem.BusMemory,
		opt.Mem.BusRdHitm+opt.Mem.BusRdInvalAllHitm)
	fmt.Printf("  speedup %.3fx; %d prefetch sites removed across %d patches (%d rollbacks)\n",
		float64(base.Cycles)/float64(opt.Cycles),
		opt.Cobra.PrefetchesNopped, opt.Cobra.PatchesApplied, opt.Cobra.PatchesRolledBack)
}
