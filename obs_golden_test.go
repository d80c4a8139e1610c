// Observability golden and invariant tests: run the scaled-down phased
// re-adaptation workload with every obs surface enabled and check (a) the
// exported Chrome trace is byte-identical to the committed fixture — the
// cycle-domain clock makes traces fully deterministic, so any drift means
// the control loop's observable behavior changed — and (b) structural
// invariants that must hold for any run: legal patch-lifecycle walks,
// ordered events, tiling optimizer windows, and metrics that agree with
// the Stats counters the reports are built from.
package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cobra"
	"repro/internal/obs"
	"repro/internal/workload"
)

// phasedScale is the scaled-down re-adaptation run used by the
// observability tests: small enough to finish in a fraction of a second,
// large enough that the adaptive controller deploys a noprefetch patch in
// phase 1 and rolls it back when phase 2 starts streaming — the complete
// candidate → deployed → kept → rolled_back lifecycle.
var phasedScale = workload.PhasedDaxpyParams{
	Elems:       1 << 16,
	WindowElems: 8192,
	Phase1Reps:  40,
	Phase2Reps:  6,
}

// runPhasedObserved executes the scaled phased workload under the
// adaptive strategy with the given observability surfaces attached.
func runPhasedObserved(t *testing.T, oc obs.Config) (*obs.Observer, workload.Measurement) {
	t.Helper()
	bc := workload.SMPConfig(4)
	cfg := cobra.DefaultConfig(cobra.StrategyAdaptive)
	bc.Cobra = &cfg
	o := obs.New(oc)
	bc.Obs = o
	inst, err := workload.Build(workload.PhasedDaxpy(phasedScale), bc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return o, m
}

// TestGoldenPhasedTrace pins the exported trace byte-for-byte. `make
// results` regenerates the fixture after an intentional control-loop or
// tracer change.
func TestGoldenPhasedTrace(t *testing.T) {
	o, m := runPhasedObserved(t, obs.Config{Trace: true, Metrics: true, Decisions: true})
	if m.Cobra.PatchesApplied == 0 || m.Cobra.PatchesRolledBack == 0 {
		t.Fatalf("fixture run must exercise the full lifecycle: patches=%d rollbacks=%d",
			m.Cobra.PatchesApplied, m.Cobra.PatchesRolledBack)
	}
	var buf bytes.Buffer
	if err := o.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "adaptive-daxpy.trace.json", buf.Bytes())
}

func TestPhasedObservabilityEndToEnd(t *testing.T) {
	o, m := runPhasedObserved(t, obs.Config{Trace: true, Metrics: true, Decisions: true})

	// Decision log: the walk must be legal, and this workload must show a
	// deploy and a rollback with evidence attached.
	dl := o.Decisions()
	if v := dl.Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations: %v", v)
	}
	var sawDeploy, sawRollback bool
	for _, d := range dl.Decisions() {
		switch d.To {
		case obs.StateDeployed:
			sawDeploy = true
			if d.Evidence.BaselineIPC <= 0 {
				t.Errorf("deploy decision without baseline IPC evidence: %+v", d)
			}
		case obs.StateRolledBack:
			sawRollback = true
			if d.Evidence.PatchedIPC >= d.Evidence.BaselineIPC {
				t.Errorf("rollback without an IPC regression in evidence: %+v", d.Evidence)
			}
			if d.Evidence.CooldownUntil <= d.Cycle {
				t.Errorf("rollback without a future cooldown: %+v", d.Evidence)
			}
		}
	}
	if !sawDeploy || !sawRollback {
		t.Fatalf("decision log incomplete: deploy=%v rollback=%v", sawDeploy, sawRollback)
	}

	// Explain renders the same walk as a readable audit report.
	var sb strings.Builder
	if err := dl.Explain(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"candidate", "deployed", "rolled_back", "final region states"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Explain report missing %q", want)
		}
	}

	// Trace: nothing dropped, metadata precedes data, spans have
	// non-negative durations, optimizer windows tile without overlap, and
	// instants are time-ordered within each track.
	tr := o.Trace()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events at default cap", tr.Dropped())
	}
	sawData := false
	var windowEnd int64
	windowSpans := 0
	lastInstant := map[int]int64{}
	lifecycle := []string{}
	for i, e := range tr.Events() {
		switch e.Ph {
		case "M":
			if sawData {
				t.Fatalf("event %d: metadata after data events", i)
			}
		case "X":
			sawData = true
			if e.Dur < 0 {
				t.Fatalf("event %d (%s): negative duration %d", i, e.Name, e.Dur)
			}
			if e.TID == obs.TIDOptimizer && strings.HasPrefix(e.Name, "window ") {
				if e.TS < windowEnd {
					t.Fatalf("window span %q starts at %d inside previous window (ends %d)", e.Name, e.TS, windowEnd)
				}
				windowEnd = e.TS + e.Dur
				windowSpans++
			}
		case "i":
			sawData = true
			if e.TS < lastInstant[e.TID] {
				t.Fatalf("event %d (%s): instant out of order on tid %d", i, e.Name, e.TID)
			}
			lastInstant[e.TID] = e.TS
			if e.TID == obs.TIDPatch {
				lifecycle = append(lifecycle, e.Name)
			}
		}
	}
	// Instant names are "<stage> <rewrite> @<head>" / "<stage> @<head>";
	// the stage sequence must show the full candidate → deployed →
	// rolled-back arc on the patch track.
	stageAt := func(stage string) int {
		for i, name := range lifecycle {
			if strings.HasPrefix(name, stage) {
				return i
			}
		}
		return -1
	}
	cand, dep, rb := stageAt("candidate"), stageAt("deployed"), stageAt("rolled back")
	if cand == -1 || dep == -1 || rb == -1 || !(cand < dep && dep < rb) {
		t.Fatalf("patch-lifecycle instants incomplete or out of order: %v", lifecycle)
	}

	// Metrics: the registry's counters are the Stats shim's backing store,
	// so they must agree exactly with the measurement's Cobra stats, and
	// per-window snapshots must have been taken.
	reg := o.Metrics()
	for name, want := range map[string]int64{
		"cobra.samples_seen":        m.Cobra.SamplesSeen,
		"cobra.triggers":            m.Cobra.Triggers,
		"cobra.patches_applied":     m.Cobra.PatchesApplied,
		"cobra.patches_rolled_back": m.Cobra.PatchesRolledBack,
		"cobra.prefetches_nopped":   m.Cobra.PrefetchesNopped,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("metric %s = %d, Stats says %d", name, got, want)
		}
	}
	if len(reg.Dump().Windows) == 0 {
		t.Error("no per-window metric snapshots were taken")
	}

	// Each sink is a projection of the same facts: one window span and
	// one registry snapshot per optimizer pass, and one patch-track
	// instant per recorded decision.
	if passes := m.Cobra.OptimizerPasses; int64(windowSpans) != passes || int64(len(reg.Dump().Windows)) != passes {
		t.Errorf("%d window spans and %d snapshots for %d optimizer passes", windowSpans, len(reg.Dump().Windows), passes)
	}
	if len(lifecycle) != len(dl.Decisions()) {
		t.Errorf("%d patch instants for %d decisions", len(lifecycle), len(dl.Decisions()))
	}
}

// TestSampleEventsMatchCounts runs the phased workload with per-sample
// events on. The sample instants, the perfmon.samples counter and
// COBRA's drained count project the same captures, so they agree: in
// total, and up to the last optimizer pass, which drains every sample
// captured before it (those captured after it are never drained).
func TestSampleEventsMatchCounts(t *testing.T) {
	o, m := runPhasedObserved(t, obs.Config{Trace: true, SampleEvents: true, Metrics: true})
	instants, beforeLastPass := int64(0), int64(0)
	for _, e := range o.Trace().Events() {
		switch {
		case e.Cat == "perfmon" && e.Name == "sample":
			instants++
		case e.TID == obs.TIDOptimizer && e.Ph == "X": // a window span
			beforeLastPass = instants
		}
	}
	dump := o.Metrics().Dump()
	last := dump.Windows[len(dump.Windows)-1].Counters
	if instants == 0 || instants != dump.Counters["perfmon.samples"] {
		t.Errorf("%d sample instants, perfmon.samples = %d", instants, dump.Counters["perfmon.samples"])
	}
	if beforeLastPass != last["perfmon.samples"] || beforeLastPass != m.Cobra.SamplesSeen {
		t.Errorf("up to the last pass: %d sample instants, perfmon.samples = %d, Stats.SamplesSeen = %d",
			beforeLastPass, last["perfmon.samples"], m.Cobra.SamplesSeen)
	}
	if dropped, ok := dump.Counters["perfmon.dropped"]; !ok || dropped != 0 {
		t.Errorf("perfmon.dropped = %d (present %v), want a registered 0", dropped, ok)
	}
}

// TestPhasedGoldenUnaffectedByObservability proves attaching a fully
// disabled observer (the production default) changes nothing observable:
// same cycles, same stats as a run with no observer at all.
func TestPhasedGoldenUnaffectedByObservability(t *testing.T) {
	run := func(withObs bool) workload.Measurement {
		bc := workload.SMPConfig(4)
		cfg := cobra.DefaultConfig(cobra.StrategyAdaptive)
		bc.Cobra = &cfg
		if withObs {
			bc.Obs = obs.New(obs.Config{})
		}
		inst, err := workload.Build(workload.PhasedDaxpy(phasedScale), bc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := inst.Measure()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, observed := run(false), run(true)
	if plain.Cycles != observed.Cycles {
		t.Fatalf("disabled observer changed simulated time: %d vs %d cycles", plain.Cycles, observed.Cycles)
	}
	if plain.Cobra != observed.Cobra {
		t.Fatalf("disabled observer changed COBRA stats:\nplain:    %+v\nobserved: %+v", plain.Cobra, observed.Cobra)
	}
}
