package repro_test

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/npb"
	"repro/internal/report"
)

// TestHarnessSmoke drives the whole stack end to end at tiny scale: the
// Figure 3 sweep, Table 1, and one NPB benchmark under all three
// strategies on both machine models, rendered through the report layer.
func TestHarnessSmoke(t *testing.T) {
	cells, err := experiment.Figure3Sched('a', experiment.QuickDaxpyScale(), experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	report.Figure3(&sb, 'a', cells)

	rows, err := experiment.Table1Sched(npb.ClassT, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report.Table1(&sb, rows)

	for _, m := range []experiment.MachineKind{experiment.SMP4, experiment.Altix8} {
		res, err := experiment.RunNPBSched(m, npb.ClassT, []string{"mg"}, experiment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		report.Figure5(&sb, 'a', res)
		report.Figure6(&sb, 'a', res)
		report.Figure7(&sb, 'a', res)
		report.CobraActivity(&sb, res)
	}

	out := sb.String()
	for _, want := range []string{
		"Figure 3(a)", "Table 1", "Figure 5(a)", "Figure 6(a)", "Figure 7(a)",
		"mg.S", "COBRA activity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("harness output missing %q", want)
		}
	}
}
