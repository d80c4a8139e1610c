package report

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/npb"
	"repro/internal/workload"
)

func TestFigure3Rendering(t *testing.T) {
	cells := []experiment.DaxpyCell{
		{WSBytes: 128 << 10, Threads: 1, Variant: workload.VariantPrefetch, Cycles: 1000, Normalized: 1},
		{WSBytes: 128 << 10, Threads: 2, Variant: workload.VariantNoPrefetch, Cycles: 480, Normalized: 0.48},
		{WSBytes: 2 << 20, Threads: 4, Variant: workload.VariantPrefetch, Cycles: 9000, Normalized: 0.25},
	}
	var sb strings.Builder
	Figure3(&sb, 'a', cells)
	out := sb.String()
	for _, want := range []string{"Figure 3(a)", "128K", "2M", "noprefetch", "0.480"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	rows := []experiment.Table1Row{
		{Bench: "bt", Lfetch: 140, BrCtop: 34, BrCloop: 32, BrWtop: 0},
		{Bench: "cg", Lfetch: 433, BrCtop: 69, BrCloop: 29, BrWtop: 2},
	}
	var sb strings.Builder
	Table1(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Table 1", "BT", "CG", "140", "433", "br.ctop"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestNPBFigureRendering(t *testing.T) {
	res, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, []string{"cg"}, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Figure5(&sb, 'a', res)
	Figure6(&sb, 'a', res)
	Figure7(&sb, 'a', res)
	CobraActivity(&sb, res)
	out := sb.String()
	for _, want := range []string{
		"Figure 5(a)", "Figure 6(a)", "Figure 7(a)",
		"cg.S", "avg", "4-way SMP", "noprefetch", "COBRA activity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
