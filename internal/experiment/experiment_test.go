package experiment

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/serve"
	"repro/internal/workload"
)

func TestFigure3Quick(t *testing.T) {
	cells, err := Figure3Sched('a', QuickDaxpyScale(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 working set x 2 thread counts x 2 variants.
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// The 1-thread prefetch cell is the normalization anchor.
	if cells[0].Variant != workload.VariantPrefetch || cells[0].Threads != 1 {
		t.Fatalf("first cell = %+v", cells[0])
	}
	if cells[0].Normalized != 1.0 {
		t.Fatalf("anchor normalized = %v, want 1.0", cells[0].Normalized)
	}
	for _, c := range cells {
		if c.Cycles <= 0 || c.Normalized <= 0 {
			t.Fatalf("bad cell %+v", c)
		}
	}
}

func TestFigure3BadPanel(t *testing.T) {
	if _, err := Figure3Sched('x', QuickDaxpyScale(), Options{}); err == nil {
		t.Fatal("accepted bad panel")
	}
}

func TestTable1Tiny(t *testing.T) {
	rows, err := Table1Sched(npb.ClassT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(npb.Names) {
		t.Fatalf("rows = %d, want %d", len(rows), len(npb.Names))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Bench] = r
	}
	// EP is the lightest prefetcher, as in the paper.
	for _, heavy := range []string{"bt", "sp", "mg", "cg", "ft", "lu"} {
		if byName[heavy].Lfetch <= byName["ep"].Lfetch {
			t.Errorf("%s lfetch %d not above ep %d", heavy, byName[heavy].Lfetch, byName["ep"].Lfetch)
		}
	}
}

func TestRunNPBQuick(t *testing.T) {
	res, err := RunNPBSched(SMP4, npb.ClassT, []string{"cg", "mg"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(Strategies) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, b := range []string{"cg", "mg"} {
		if s := res.Speedup(b, Baseline); s != 1.0 {
			t.Errorf("%s baseline speedup = %v, want 1", b, s)
		}
		for _, s := range []StrategyLabel{NoPrefetch, Excl} {
			if v := res.Speedup(b, s); v <= 0 {
				t.Errorf("%s %s speedup = %v", b, s, v)
			}
			if v := res.NormL3(b, s); v <= 0 {
				t.Errorf("%s %s L3 = %v", b, s, v)
			}
			if v := res.NormBus(b, s); v <= 0 {
				t.Errorf("%s %s bus = %v", b, s, v)
			}
		}
	}
	if avg := res.Average(res.Speedup, Baseline); avg != 1.0 {
		t.Errorf("avg baseline speedup = %v", avg)
	}
	if _, ok := res.Cell("cg", NoPrefetch); !ok {
		t.Error("Cell lookup failed")
	}
	if _, ok := res.Cell("nope", Baseline); ok {
		t.Error("Cell found a missing benchmark")
	}
	if got := res.Benches(); len(got) != 2 || got[0] != "cg" {
		t.Errorf("Benches = %v", got)
	}
}

func TestMachineKinds(t *testing.T) {
	if SMP4.Threads() != 4 || Altix8.Threads() != 8 {
		t.Fatal("thread counts wrong")
	}
	if !strings.Contains(Altix8.String(), "NUMA") {
		t.Fatalf("Altix name = %q", Altix8.String())
	}
	cfg := Altix8.config()
	if !cfg.Machine.Mem.NUMA || cfg.Machine.Mem.CPUsPerNode != 2 {
		t.Fatal("Altix config not cc-NUMA 2-per-node")
	}
}

// TestServedNUMASessionMatchesFigure5b: a served 8-thread NUMA CG session
// runs the COBRA configuration of Figure 5(b)'s CG cell, so cobra-run and
// cobrad reproduce the published Altix rows.
func TestServedNUMASessionMatchesFigure5b(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		cell     StrategyLabel
	}{{"noprefetch", NoPrefetch}, {"excl", Excl}} {
		s := serve.Spec{Workload: "cg", Threads: 8, Machine: "numa", Strategy: tc.strategy}
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		inst, err := s.Instantiate(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		served := inst.Cobra.Config()
		served.Obs = nil
		if want := *cobraFor(tc.cell, Altix8); !reflect.DeepEqual(served, want) {
			t.Errorf("%s: served session runs %+v, Figure 5(b) cell runs %+v", tc.strategy, served, want)
		}
	}
}

func TestCobraForLabels(t *testing.T) {
	if cobraFor(Baseline, SMP4) != nil {
		t.Fatal("baseline must run without COBRA")
	}
	if cobraFor(NoPrefetch, SMP4) == nil || cobraFor(Excl, SMP4) == nil {
		t.Fatal("optimized strategies must attach COBRA")
	}
	if smp, numa := cobraFor(NoPrefetch, SMP4), cobraFor(NoPrefetch, Altix8); numa.CoherentLatency <= smp.CoherentLatency {
		t.Fatal("NUMA coherent-latency filter must exceed the SMP's")
	}
}
