package cobra_test

import (
	"strings"
	"testing"

	"repro/internal/cobra"
	"repro/internal/obs"
	"repro/internal/workload"
)

// phasedParams is the scaled-down re-adaptation workload: phase 1
// hammers a cache-resident window (noprefetch wins), phase 2 streams the
// full arrays (prefetch removal regresses). Phase 2 is long enough for
// two full judgement rounds, so the multiversion engine can reject the
// nop variant, switch to excl, and judge that too.
var phasedParams = workload.PhasedDaxpyParams{
	Elems:       1 << 16,
	WindowElems: 8192,
	Phase1Reps:  40,
	Phase2Reps:  12,
}

// runPhased executes the phased workload under strategy s with
// decisions, self-check and metrics attached.
func runPhased(t *testing.T, s cobra.Strategy) (*obs.Observer, workload.Measurement) {
	t.Helper()
	bc := workload.SMPConfig(4)
	cfg := cobra.DefaultConfig(s)
	bc.Cobra = &cfg
	o := obs.New(obs.Config{Trace: true, Metrics: true, Decisions: true})
	bc.Obs = o
	inst, err := workload.Build(workload.PhasedDaxpy(phasedParams), bc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if v := o.Decisions().Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations under %s: %v", s, v)
	}
	return o, m
}

// TestMultiVersionSwitchesOnPhaseChange is the tentpole acceptance run:
// on the phased workload the multiversion engine must deploy a resident
// variant table and flip the dispatch branch at least once (nop rejected
// by phase 2 → switch to the resident excl variant, no redeploy).
func TestMultiVersionSwitchesOnPhaseChange(t *testing.T) {
	o, m := runPhased(t, cobra.StrategyMultiVersion)
	if m.Cobra.PatchesApplied == 0 {
		t.Fatal("multiversion never deployed")
	}
	if m.Cobra.VariantSwitches == 0 {
		t.Fatal("multiversion never switched a resident variant")
	}
	var sawDeploy, sawSwitch bool
	var variants int
	for _, d := range o.Decisions().Decisions() {
		switch d.To {
		case obs.StateDeployed:
			sawDeploy = true
			variants = d.Evidence.Variants
		case obs.StateSwitched:
			sawSwitch = true
			if d.From != obs.StateDeployed && d.From != obs.StateKept &&
				d.From != obs.StateSwitched && d.From != obs.StateRolledBack {
				t.Errorf("switched from unexpected state %q", d.From)
			}
			if d.Evidence.Variant == "" || d.Evidence.Variants < 2 {
				t.Errorf("switch without variant evidence: %+v", d.Evidence)
			}
		}
	}
	if !sawDeploy || !sawSwitch {
		t.Fatalf("decision log incomplete: deploy=%v switch=%v", sawDeploy, sawSwitch)
	}
	if variants < 2 {
		t.Fatalf("deployed %d resident variants, want >= 2", variants)
	}
	// The stats counter and the audit trail must agree on switch count.
	switches := int64(0)
	for _, d := range o.Decisions().Decisions() {
		if d.To == obs.StateSwitched {
			switches++
		}
	}
	if switches != m.Cobra.VariantSwitches {
		t.Fatalf("decision log shows %d switches, stats %d", switches, m.Cobra.VariantSwitches)
	}
}

// TestCausalRecordsPredictedVsActual: the causal engine must deploy with
// a what-if prediction attached and carry it through judgement so
// the decision log's Explain reports predicted-vs-actual IPC.
func TestCausalRecordsPredictedVsActual(t *testing.T) {
	o, m := runPhased(t, cobra.StrategyCausal)
	if m.Cobra.PatchesApplied == 0 {
		t.Fatal("causal never deployed")
	}
	var sawPrediction, sawJudgedPrediction bool
	for _, d := range o.Decisions().Decisions() {
		if d.To == obs.StateDeployed && d.Evidence.PredictedIPC > 0 {
			sawPrediction = true
			if d.Evidence.PredictedDelta <= 0 {
				t.Errorf("deploy predicted a non-positive delta: %+v", d.Evidence)
			}
		}
		if (d.To == obs.StateKept || d.To == obs.StateRolledBack) &&
			d.Evidence.PredictedIPC > 0 && d.Evidence.PatchedIPC > 0 {
			sawJudgedPrediction = true
		}
	}
	if !sawPrediction {
		t.Fatal("no deploy decision carries a what-if prediction")
	}
	if !sawJudgedPrediction {
		t.Fatal("no judged decision pairs prediction with realized IPC")
	}
	var b strings.Builder
	if err := o.Decisions().Explain(&b); err != nil {
		t.Fatal(err)
	}
	report := b.String()
	if !strings.Contains(report, "what-if: predicted=") {
		t.Fatalf("Explain does not show the prediction:\n%s", report)
	}
	if !strings.Contains(report, "actual=") {
		t.Fatalf("Explain does not show predicted-vs-actual:\n%s", report)
	}
}

// TestEnginesPreserveWorkloadResults: whatever the engine does to the
// code, the workload's own Verify must hold (Measure fails otherwise) —
// run the whole matrix, one parallel subtest per engine.
func TestEnginesPreserveWorkloadResults(t *testing.T) {
	for _, s := range []cobra.Strategy{cobra.StrategyAdaptive, cobra.StrategyMultiVersion, cobra.StrategyCausal, cobra.StrategyLayout} {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			if _, m := runPhased(t, s); m.Cycles <= 0 {
				t.Errorf("%s: no cycles measured", s)
			}
		})
	}
}
