// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark prints the series the paper reports via
// b.ReportMetric, so `go test -bench . -benchmem` reproduces the
// evaluation end to end:
//
//	Figure 3(a)/(b)  DAXPY normalized execution time sweeps
//	Table 1          static lfetch / br.ctop / br.cloop / br.wtop counts
//	Figure 5(a)/(b)  NPB speedups under COBRA on SMP / cc-NUMA
//	Figure 6(a)/(b)  normalized L3 misses
//	Figure 7(a)/(b)  normalized bus transactions
//
// The per-machine NPB sweeps are computed once and shared by the three
// figures that read them.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cobra"
	"repro/internal/experiment"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/workload"
)

// benchDaxpyScale is a reduced but shape-preserving Figure 3 sweep.
func benchDaxpyScale() experiment.DaxpyScale {
	return experiment.DaxpyScale{
		WorkingSets: []int64{128 << 10, 2 << 20},
		Threads:     []int{1, 4},
		RepsFor: func(ws int64) int {
			if ws >= 2<<20 {
				return 8
			}
			return 60
		},
	}
}

func BenchmarkFig2Codegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: 128 << 10, OuterReps: 1})
		inst, err := workload.Build(w, workload.SMPConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		c := inst.Ctx.Res.StaticCounts(inst.Ctx.M.Image())
		if i == 0 {
			b.ReportMetric(float64(c.Lfetch), "lfetch")
			b.ReportMetric(float64(c.BrCtop), "br.ctop")
		}
	}
}

func benchFigure3(b *testing.B, panel byte) {
	for i := 0; i < b.N; i++ {
		cells, err := experiment.Figure3(panel, benchDaxpyScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.Variant == workload.VariantPrefetch {
					continue
				}
				// Ratio of the rewritten variant to the prefetch baseline
				// at the same (working set, threads) point.
				for _, base := range cells {
					if base.WSBytes == c.WSBytes && base.Threads == c.Threads &&
						base.Variant == workload.VariantPrefetch {
						name := fmt.Sprintf("ws%dK_t%d_ratio", c.WSBytes>>10, c.Threads)
						b.ReportMetric(float64(c.Cycles)/float64(base.Cycles), name)
					}
				}
			}
		}
	}
}

func BenchmarkFig3aDaxpyPrefetchVsNoprefetch(b *testing.B) { benchFigure3(b, 'a') }
func BenchmarkFig3bDaxpyPrefetchExcl(b *testing.B)         { benchFigure3(b, 'b') }

func BenchmarkTable1StaticCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table1(npb.ClassS)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Lfetch), r.Bench+"_lfetch")
			}
		}
	}
}

// The NPB sweeps are expensive; compute each machine's once and share it
// across the speedup / L3 / bus benchmarks.
var (
	npbOnce   [2]sync.Once
	npbResult [2]*experiment.NPBResult
	npbErr    [2]error
)

func npbSweep(b *testing.B, m experiment.MachineKind) *experiment.NPBResult {
	b.Helper()
	npbOnce[m].Do(func() {
		npbResult[m], npbErr[m] = experiment.RunNPB(m, npb.ClassS, nil)
	})
	if npbErr[m] != nil {
		b.Fatal(npbErr[m])
	}
	return npbResult[m]
}

func benchNPBMetric(b *testing.B, m experiment.MachineKind, unit string,
	metric func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64) {
	for i := 0; i < b.N; i++ {
		res := npbSweep(b, m)
		if i == 0 {
			f := metric(res)
			for _, s := range []experiment.StrategyLabel{experiment.NoPrefetch, experiment.Excl} {
				for _, bench := range res.Benches() {
					b.ReportMetric(f(bench, s), bench+"_"+string(s)+"_"+unit)
				}
				b.ReportMetric(res.Average(f, s), "avg_"+string(s)+"_"+unit)
			}
		}
	}
}

func BenchmarkFig5aSpeedupSMP(b *testing.B) {
	benchNPBMetric(b, experiment.SMP4, "speedup", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.Speedup
	})
}

func BenchmarkFig5bSpeedupNUMA(b *testing.B) {
	benchNPBMetric(b, experiment.Altix8, "speedup", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.Speedup
	})
}

func BenchmarkFig6aL3MissesSMP(b *testing.B) {
	benchNPBMetric(b, experiment.SMP4, "l3norm", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.NormL3
	})
}

func BenchmarkFig6bL3MissesNUMA(b *testing.B) {
	benchNPBMetric(b, experiment.Altix8, "l3norm", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.NormL3
	})
}

func BenchmarkFig7aBusTransSMP(b *testing.B) {
	benchNPBMetric(b, experiment.SMP4, "busnorm", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.NormBus
	})
}

func BenchmarkFig7bBusTransNUMA(b *testing.B) {
	benchNPBMetric(b, experiment.Altix8, "busnorm", func(r *experiment.NPBResult) func(string, experiment.StrategyLabel) float64 {
		return r.NormBus
	})
}

// ---- Ablations (DESIGN.md §5) ----

func daxpyCycles(b *testing.B, ws int64, reps int, cfg *cobra.Config, v workload.Variant) int64 {
	b.Helper()
	w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: ws, OuterReps: reps})
	bc := workload.SMPConfig(4)
	bc.Cobra = cfg
	inst, err := workload.Build(w, bc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.ApplyVariant(inst, v); err != nil {
		b.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		b.Fatal(err)
	}
	return m.Cycles
}

// BenchmarkAblationNoCoherenceFilters disables the profiling filters —
// the two-level DEAR latency filter (CoherentLatency = 0) and the
// coherent-share trigger gate — leaving an always-on optimizer. On a
// streaming working set it removes useful prefetches from capacity-bound
// loops; the filtered configuration must be faster.
func BenchmarkAblationNoCoherenceFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		filtered := cobra.DefaultConfig(cobra.StrategyNoprefetch)
		unfiltered := cobra.DefaultConfig(cobra.StrategyNoprefetch)
		unfiltered.CoherentLatency = 0
		unfiltered.CoherentShareThreshold = 0
		unfiltered.MinCoherentEvents = 0
		// Disable the safety net too: this measures the filters, not the
		// rollback (which would otherwise repair the damage).
		unfiltered.RollbackTolerance = 1e9
		filtered.RollbackTolerance = 1e9
		cf := daxpyCycles(b, 2<<20, 8, &filtered, workload.VariantPrefetch)
		cu := daxpyCycles(b, 2<<20, 8, &unfiltered, workload.VariantPrefetch)
		if i == 0 {
			b.ReportMetric(float64(cu)/float64(cf), "unfiltered_vs_filtered")
		}
	}
}

// BenchmarkAblationTraceVsInPlace compares the two deployment mechanisms:
// code-cache trace redirection (the paper's design) against in-place word
// patching.
func BenchmarkAblationTraceVsInPlace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := cobra.DefaultConfig(cobra.StrategyNoprefetch)
		inplace := cobra.DefaultConfig(cobra.StrategyNoprefetch)
		inplace.UseTraceCache = false
		ct := daxpyCycles(b, 128<<10, 100, &trace, workload.VariantPrefetch)
		cp := daxpyCycles(b, 128<<10, 100, &inplace, workload.VariantPrefetch)
		if i == 0 {
			b.ReportMetric(float64(ct)/float64(cp), "trace_vs_inplace")
		}
	}
}

// BenchmarkAblationExclAll applies .excl to every prefetch statically
// (instead of only store-following streams): at a cache-resident working
// set the indiscriminate version steals read-shared lines and loses.
func BenchmarkAblationExclAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sel := daxpyCycles(b, 128<<10, 100, nil, workload.VariantExcl)
		all := daxpyCycles(b, 128<<10, 100, nil, workload.VariantExclAll)
		if i == 0 {
			b.ReportMetric(float64(all)/float64(sel), "exclall_vs_selective")
		}
	}
}

// BenchmarkAblationSamplingPeriod sweeps the perfmon sampling period:
// denser sampling finds the optimization sooner but costs more overhead.
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, period := range []int64{5000, 20000, 80000} {
			cfg := cobra.DefaultConfig(cobra.StrategyNoprefetch)
			cfg.Sampling.CyclePeriod = period
			c := daxpyCycles(b, 128<<10, 100, &cfg, workload.VariantPrefetch)
			if i == 0 {
				b.ReportMetric(float64(c), fmt.Sprintf("cycles_period%d", period))
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per second of host time for a streaming kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: 512 << 10, OuterReps: 4})
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		inst, err := workload.Build(w, workload.SMPConfig(4))
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			b.Fatal(err)
		}
		instr = 0
		for c := 0; c < 4; c++ {
			instr += inst.Ctx.M.CPU(c).InstRetired
		}
	}
	b.ReportMetric(float64(instr), "sim_instrs/op")
}

// BenchmarkSimulatorThroughputTraced is the same streaming kernel with
// every observability surface enabled (cycle-domain tracer, metrics
// registry, decision log). The delta against BenchmarkSimulatorThroughput
// is the total cost of observing a run: region spans, machine counter
// events, and registry updates — the per-instruction path itself never
// consults the observer.
func BenchmarkSimulatorThroughputTraced(b *testing.B) {
	w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: 512 << 10, OuterReps: 4})
	b.ResetTimer()
	var instr, events int64
	for i := 0; i < b.N; i++ {
		bc := workload.SMPConfig(4)
		o := obs.New(obs.Config{Trace: true, Metrics: true, Decisions: true})
		bc.Obs = o
		inst, err := workload.Build(w, bc)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			b.Fatal(err)
		}
		instr = 0
		for c := 0; c < 4; c++ {
			instr += inst.Ctx.M.CPU(c).InstRetired
		}
		events = int64(o.Trace().Len())
	}
	b.ReportMetric(float64(instr), "sim_instrs/op")
	b.ReportMetric(float64(events), "trace_events/op")
}
