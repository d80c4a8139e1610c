// Package report renders experiment results as the text equivalents of the
// paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/experiment"
	"repro/internal/workload"
)

// Figure3 renders the normalized DAXPY execution times of Figure 3.
func Figure3(w io.Writer, panel byte, cells []experiment.DaxpyCell) {
	alt := "noprefetch"
	if panel == 'b' {
		alt = "prefetch.excl"
	}
	fmt.Fprintf(w, "Figure 3(%c): DAXPY normalized execution time, prefetch vs %s (4-way SMP)\n", panel, alt)
	fmt.Fprintf(w, "(normalized to the 1-thread prefetch run at each working set)\n\n")
	fmt.Fprintf(w, "%-12s %-8s %-18s %14s %12s\n", "working set", "threads", "variant", "cycles", "normalized")
	var lastWS int64 = -1
	for _, c := range cells {
		if c.WSBytes != lastWS {
			if lastWS >= 0 {
				fmt.Fprintln(w)
			}
			lastWS = c.WSBytes
		}
		fmt.Fprintf(w, "%-12s %-8d %-18s %14d %12.3f\n",
			wsName(c.WSBytes), c.Threads, variantName(c.Variant), c.Cycles, c.Normalized)
	}
}

func wsName(ws int64) string {
	switch {
	case ws >= 1<<20:
		return fmt.Sprintf("%dM", ws>>20)
	default:
		return fmt.Sprintf("%dK", ws>>10)
	}
}

func variantName(v workload.Variant) string { return v.String() }

// Table1 renders the static instruction statistics table.
func Table1(w io.Writer, rows []experiment.Table1Row) {
	fmt.Fprintf(w, "Table 1: loops and prefetches in compiler-generated OpenMP NPB binaries\n\n")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s\n", "benchmark", "lfetch", "br.ctop", "br.cloop", "br.wtop")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %8d %8d %8d\n",
			strings.ToUpper(r.Bench), r.Lfetch, r.BrCtop, r.BrCloop, r.BrWtop)
	}
}

// figureNPB renders one of Figures 5/6/7 from a metric accessor.
func figureNPB(w io.Writer, title, valueHeader string, r *experiment.NPBResult,
	metric func(bench string, s experiment.StrategyLabel) float64) {
	fmt.Fprintf(w, "%s\n%s, %d threads\n\n", title, r.Machine, r.Threads)
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, s := range experiment.Strategies {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("(%d, %s)", r.Threads, s))
	}
	fmt.Fprintln(w)
	for _, b := range r.Benches() {
		fmt.Fprintf(w, "%-10s", b+".S")
		for _, s := range experiment.Strategies {
			fmt.Fprintf(w, " %16.3f", metric(b, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "avg")
	for _, s := range experiment.Strategies {
		fmt.Fprintf(w, " %16.3f", r.Average(metric, s))
	}
	fmt.Fprintf(w, "\n(%s)\n", valueHeader)
}

// Figure5 renders the speedup figure.
func Figure5(w io.Writer, panel byte, r *experiment.NPBResult) {
	figureNPB(w, fmt.Sprintf("Figure 5(%c): speedup of coherent memory access optimization on OpenMP NPB", panel),
		"speedup relative to baseline (prefetch); > 1 is faster", r, r.Speedup)
}

// Figure6 renders the normalized L3 miss figure.
func Figure6(w io.Writer, panel byte, r *experiment.NPBResult) {
	figureNPB(w, fmt.Sprintf("Figure 6(%c): number of L3 misses on OpenMP NPB", panel),
		"L3 misses normalized to baseline; < 1 is fewer", r, r.NormL3)
}

// Figure7 renders the normalized bus transaction figure.
func Figure7(w io.Writer, panel byte, r *experiment.NPBResult) {
	figureNPB(w, fmt.Sprintf("Figure 7(%c): memory transactions on the system bus on OpenMP NPB", panel),
		"bus transactions normalized to baseline; < 1 is fewer", r, r.NormBus)
}

// CobraActivity summarizes the runtime's behaviour during a sweep.
func CobraActivity(w io.Writer, r *experiment.NPBResult) {
	fmt.Fprintf(w, "COBRA activity (%s)\n\n", r.Machine)
	fmt.Fprintf(w, "%-10s %-15s %9s %9s %9s %9s %9s\n",
		"benchmark", "strategy", "samples", "triggers", "patches", "nopped", "excl'd")
	for _, c := range r.Cells {
		if c.Strategy == experiment.Baseline {
			continue
		}
		fmt.Fprintf(w, "%-10s %-15s %9d %9d %9d %9d %9d\n",
			c.Bench, string(c.Strategy), c.Cobra.SamplesSeen, c.Cobra.Triggers,
			c.Cobra.PatchesApplied, c.Cobra.PrefetchesNopped, c.Cobra.PrefetchesExcl)
	}
}
