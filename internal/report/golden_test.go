package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cobra"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/workload"
)

// npbFixture is a small synthetic sweep with round numbers so every
// normalized figure value is an exact decimal — table-driven goldens pin
// the renderers' exact alignment, which ad-hoc Contains checks cannot.
func npbFixture() *experiment.NPBResult {
	cell := func(b string, s experiment.StrategyLabel, cyc, l3, bus int64, cs cobra.Stats) experiment.NPBCell {
		m := workload.Measurement{Cycles: cyc, Cobra: cs}
		m.Mem = mem.CPUStats{L3Misses: l3, BusMemory: bus}
		return experiment.NPBCell{Bench: b, Strategy: s, Measurement: m}
	}
	return &experiment.NPBResult{
		Machine: experiment.SMP4,
		Threads: 4,
		Cells: []experiment.NPBCell{
			cell("bt", experiment.Baseline, 1000, 100, 200, cobra.Stats{}),
			cell("bt", experiment.NoPrefetch, 2000, 50, 100, cobra.Stats{SamplesSeen: 10, Triggers: 2, PatchesApplied: 1, PrefetchesNopped: 5}),
			cell("bt", experiment.Excl, 500, 80, 150, cobra.Stats{SamplesSeen: 12, Triggers: 3, PatchesApplied: 2, PrefetchesExcl: 7}),
			cell("cg", experiment.Baseline, 900, 90, 90, cobra.Stats{}),
			cell("cg", experiment.NoPrefetch, 450, 45, 45, cobra.Stats{SamplesSeen: 8, Triggers: 1, PatchesApplied: 1, PrefetchesNopped: 3}),
			cell("cg", experiment.Excl, 300, 30, 30, cobra.Stats{SamplesSeen: 9, Triggers: 2, PatchesApplied: 1, PrefetchesExcl: 4}),
		},
	}
}

// checkGolden compares rendered output to the golden byte-for-byte,
// reporting the first differing lines on failure.
func checkGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func TestFigure3Golden(t *testing.T) {
	var b bytes.Buffer
	Figure3(&b, 'a', []experiment.DaxpyCell{
		{WSBytes: 128 << 10, Threads: 1, Variant: workload.VariantPrefetch, Cycles: 1000, Normalized: 1},
		{WSBytes: 128 << 10, Threads: 2, Variant: workload.VariantNoPrefetch, Cycles: 1500, Normalized: 1.5},
		{WSBytes: 1 << 20, Threads: 1, Variant: workload.VariantPrefetch, Cycles: 8000, Normalized: 1},
		{WSBytes: 1 << 20, Threads: 2, Variant: workload.VariantExcl, Cycles: 4000, Normalized: 0.5},
	})
	want := `Figure 3(a): DAXPY normalized execution time, prefetch vs noprefetch (4-way SMP)
(normalized to the 1-thread prefetch run at each working set)

working set  threads  variant                    cycles   normalized
128K         1        prefetch                     1000        1.000
128K         2        noprefetch                   1500        1.500

1M           1        prefetch                     8000        1.000
1M           2        prefetch.excl                4000        0.500
`
	checkGolden(t, b.String(), want)
}

func TestFigure3PanelBAndEmpty(t *testing.T) {
	var b bytes.Buffer
	Figure3(&b, 'b', nil)
	got := b.String()
	if !strings.Contains(got, "prefetch vs prefetch.excl") {
		t.Errorf("panel b header wrong:\n%s", got)
	}
	if n := strings.Count(got, "\n"); n != 4 {
		t.Errorf("empty figure rendered %d lines, want header-only (4)", n)
	}
}

func TestTable1Golden(t *testing.T) {
	var b bytes.Buffer
	Table1(&b, []experiment.Table1Row{
		{Bench: "bt", Lfetch: 111, BrCtop: 22, BrCloop: 3, BrWtop: 0},
		{Bench: "cg", Lfetch: 7, BrCtop: 1, BrCloop: 0, BrWtop: 2},
	})
	want := `Table 1: loops and prefetches in compiler-generated OpenMP NPB binaries

benchmark      lfetch  br.ctop br.cloop  br.wtop
BT                111       22        3        0
CG                  7        1        0        2
`
	checkGolden(t, b.String(), want)

	b.Reset()
	Table1(&b, nil)
	want = `Table 1: loops and prefetches in compiler-generated OpenMP NPB binaries

benchmark      lfetch  br.ctop br.cloop  br.wtop
`
	checkGolden(t, b.String(), want)
}

func TestFigure5Golden(t *testing.T) {
	var b bytes.Buffer
	Figure5(&b, 'a', npbFixture())
	want := `Figure 5(a): speedup of coherent memory access optimization on OpenMP NPB
4-way SMP, 4 threads

benchmark     (4, prefetch)  (4, noprefetch) (4, prefetch.excl)
bt.S                  1.000            0.500            2.000
cg.S                  1.000            2.000            3.000
avg                   1.000            1.250            2.500
(speedup relative to baseline (prefetch); > 1 is faster)
`
	checkGolden(t, b.String(), want)
}

func TestFigure6Golden(t *testing.T) {
	var b bytes.Buffer
	Figure6(&b, 'a', npbFixture())
	want := `Figure 6(a): number of L3 misses on OpenMP NPB
4-way SMP, 4 threads

benchmark     (4, prefetch)  (4, noprefetch) (4, prefetch.excl)
bt.S                  1.000            0.500            0.800
cg.S                  1.000            0.500            0.333
avg                   1.000            0.500            0.567
(L3 misses normalized to baseline; < 1 is fewer)
`
	checkGolden(t, b.String(), want)
}

func TestFigure7Golden(t *testing.T) {
	var b bytes.Buffer
	Figure7(&b, 'a', npbFixture())
	want := `Figure 7(a): memory transactions on the system bus on OpenMP NPB
4-way SMP, 4 threads

benchmark     (4, prefetch)  (4, noprefetch) (4, prefetch.excl)
bt.S                  1.000            0.500            0.750
cg.S                  1.000            0.500            0.333
avg                   1.000            0.500            0.542
(bus transactions normalized to baseline; < 1 is fewer)
`
	checkGolden(t, b.String(), want)
}

// TestFigureEmptyResult renders a sweep with no cells: headers and a
// zero avg row, no panic, no division by zero.
func TestFigureEmptyResult(t *testing.T) {
	var b bytes.Buffer
	Figure5(&b, 'b', &experiment.NPBResult{Machine: experiment.Altix8, Threads: 8})
	want := `Figure 5(b): speedup of coherent memory access optimization on OpenMP NPB
SGI Altix cc-NUMA, 8 threads

benchmark     (8, prefetch)  (8, noprefetch) (8, prefetch.excl)
avg                   0.000            0.000            0.000
(speedup relative to baseline (prefetch); > 1 is faster)
`
	checkGolden(t, b.String(), want)
}

// TestCobraActivityGolden pins the activity table and that baseline
// cells (which run unmonitored) are excluded from it.
func TestCobraActivityGolden(t *testing.T) {
	var b bytes.Buffer
	CobraActivity(&b, npbFixture())
	want := `COBRA activity (4-way SMP)

benchmark  strategy          samples  triggers   patches    nopped    excl'd
bt         noprefetch             10         2         1         5         0
bt         prefetch.excl          12         3         2         0         7
cg         noprefetch              8         1         1         3         0
cg         prefetch.excl           9         2         1         0         4
`
	checkGolden(t, b.String(), want)
}
