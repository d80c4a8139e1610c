package cobra_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cobra"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The per-engine digest matrix pins what every strategy engine does, cell
// by cell, so a refactor of the patch lifecycle can prove it changed
// nothing: simulated cycles, the runtime's activity counters, the
// decision log, and every trace event outside the "patch" category. The
// patch instants themselves are held to a structural rule instead — one
// instant per decision, at the decision's cycle, named after its state —
// because their names and args are presentation, not behaviour.
//
// The thresholds are floored (the verify fault harness's settings at a
// 5000-cycle interval) so that short runs walk every lifecycle path each
// engine can take: deploy, keep, roll back, switch, re-engage, block.

// digestConfig is the floored COBRA configuration of the workload cells.
func digestConfig(strategy cobra.Strategy, trace bool) cobra.Config {
	cfg := cobra.DefaultConfig(strategy)
	cfg.UseTraceCache = trace
	cfg.OptimizeInterval = 5_000
	cfg.MinCoherentEvents = 1
	cfg.CoherentShareThreshold = 0.01
	cfg.CoherentLatency = 100
	cfg.MinLoopSamples = 1
	cfg.MinDelinquentSamples = 1
	cfg.Sampling.CyclePeriod = 400
	cfg.Sampling.DEARMinLatency = 50
	return cfg
}

// digest is the pinned outcome of one cell.
type digest struct {
	Cycles    int64
	Stats     cobra.Stats
	Decisions string // sha256 of the decision log's JSON
	Trace     string // sha256 of the trace's non-patch events
}

// digestCell is one (workload, engine configuration) run.
type digestCell struct {
	name string
	slow bool // skipped under -short
	run  func(t *testing.T) (digest, *obs.Observer, string)
}

// runWorkloadCell builds w under bc with cfg and observability attached.
func runWorkloadCell(t *testing.T, w *workload.Workload, bc workload.BuildConfig, cfg cobra.Config) (digest, *obs.Observer, string) {
	t.Helper()
	o := obs.New(obs.Config{Trace: true, Decisions: true})
	bc.Obs = o
	bc.Cobra = &cfg
	inst, err := workload.Build(w, bc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := inst.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return digest{Cycles: m.Cycles, Stats: inst.Cobra.Stats()}, o, engineName(cfg)
}

// engineName names the engine cfg's strategy selects.
func engineName(cfg cobra.Config) string {
	switch cfg.Strategy {
	case cobra.StrategyMultiVersion, cobra.StrategyCausal, cobra.StrategyLayout:
		return cfg.Strategy.String()
	}
	return "prefetch"
}

// engineConfigs are the engine configurations every workload runs under.
var engineConfigs = []struct {
	name string
	cfg  func() cobra.Config
}{
	{"prefetch-adaptive-trace", func() cobra.Config { return digestConfig(cobra.StrategyAdaptive, true) }},
	{"prefetch-adaptive-inplace", func() cobra.Config { return digestConfig(cobra.StrategyAdaptive, false) }},
	{"prefetch-noprefetch", func() cobra.Config { return digestConfig(cobra.StrategyNoprefetch, true) }},
	{"multiversion", func() cobra.Config { return digestConfig(cobra.StrategyMultiVersion, true) }},
	{"causal", func() cobra.Config { return digestConfig(cobra.StrategyCausal, true) }},
}

func pointerChaseCell() (*workload.Workload, workload.BuildConfig) {
	w := workload.PointerChase(workload.PointerChaseParams{Nodes: 2048, Steps: 1024, Reps: 24})
	bc := workload.NUMANodesConfig(4, []mem.NodeConfig{{CPUs: 1}, {CPUs: 3}})
	bc.Machine.Mem.Placement = mem.PlaceInterleave
	return w, bc
}

func digestCells() []digestCell {
	var cells []digestCell
	for _, ec := range engineConfigs {
		ec := ec
		cells = append(cells, digestCell{
			name: "phased/" + ec.name,
			run: func(t *testing.T) (digest, *obs.Observer, string) {
				return runWorkloadCell(t, workload.PhasedDaxpy(phasedParams), workload.SMPConfig(4), ec.cfg())
			},
		})
	}
	for _, ec := range engineConfigs {
		ec := ec
		cells = append(cells, digestCell{
			name: "pointerchase/" + ec.name,
			run: func(t *testing.T) (digest, *obs.Observer, string) {
				w, bc := pointerChaseCell()
				return runWorkloadCell(t, w, bc, ec.cfg())
			},
		})
	}
	cells = append(cells, digestCell{
		name: "pointerchase/prefetch-bias",
		run: func(t *testing.T) (digest, *obs.Observer, string) {
			w, bc := pointerChaseCell()
			return runWorkloadCell(t, w, bc, digestConfig(cobra.StrategyBias, true))
		},
	})
	// The branchy cells observe their hand-built machine, so their traces
	// also hold its OpenMP region spans and retired-instruction counters.
	branchy := func(launches int, tolerance *float64) func(t *testing.T) (digest, *obs.Observer, string) {
		return func(t *testing.T) (digest, *obs.Observer, string) {
			cfg := layoutSmokeConfig()
			if tolerance != nil {
				cfg.RollbackTolerance = *tolerance
			}
			o := obs.New(obs.Config{Trace: true, Decisions: true})
			cb, m, _ := launchBranchy(t, 400, launches, cfg, o)
			return digest{Cycles: m.GlobalCycle(), Stats: cb.Stats()}, o, "layout"
		}
	}
	negative := -0.5
	cells = append(cells,
		digestCell{name: "branchy/layout-240", slow: true, run: branchy(240, nil)},
		digestCell{name: "branchy/layout-60-tol-0.5", run: branchy(60, &negative)},
	)
	return cells
}

// hashDecisions returns the sha256 of the decision log's JSON.
func hashDecisions(t *testing.T, dl *obs.DecisionLog) string {
	t.Helper()
	b, err := json.Marshal(dl.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashNonPatchTrace returns the sha256 of every trace event outside the
// "patch" category, one JSON line per event in emission order.
func hashNonPatchTrace(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	h := sha256.New()
	for _, e := range tr.Events() {
		if e.Cat == "patch" {
			continue
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// patchInstantPrefix maps a lifecycle state to the name its trace instant
// starts with.
var patchInstantPrefix = map[obs.PatchState]string{
	obs.StateCandidate:  "candidate ",
	obs.StateDeployed:   "deployed ",
	obs.StateKept:       "kept ",
	obs.StateRolledBack: "rolled back ",
	obs.StateBlocked:    "blocked ",
	obs.StateSwitched:   "switched ",
}

// checkPatchInstants asserts exactly one patch instant per decision, at
// the decision's cycle, in decision order within each cycle.
func checkPatchInstants(t *testing.T, dl *obs.DecisionLog, tr *obs.Tracer) {
	t.Helper()
	want := map[int64][]string{}
	for _, d := range dl.Decisions() {
		want[d.Cycle] = append(want[d.Cycle], patchInstantPrefix[d.To])
	}
	got := map[int64][]string{}
	for _, e := range tr.Events() {
		if e.Cat == "patch" && e.Ph == "i" {
			got[e.TS] = append(got[e.TS], e.Name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("patch instants at %d distinct cycles, decisions at %d", len(got), len(want))
	}
	for cycle, prefixes := range want {
		names := got[cycle]
		if len(names) != len(prefixes) {
			t.Errorf("cycle %d: %d patch instants %q for %d decisions %q", cycle, len(names), names, len(prefixes), prefixes)
			continue
		}
		for i, p := range prefixes {
			if !strings.HasPrefix(names[i], p) {
				t.Errorf("cycle %d: instant %q does not match decision %q", cycle, names[i], strings.TrimSpace(p))
			}
		}
	}
}

// wantReasons is every (engine, state, reason) the matrix records: every
// reason string each engine can record, except "escalate" under
// multiversion and layout (their resident tables re-engage instead).
var wantReasons = []string{
	"causal candidate escalate",
	"causal candidate what_if",
	"causal deployed deploy",
	"causal kept improved",
	"causal kept within_tolerance",
	"causal rolled_back regressed",
	"layout candidate trigger",
	"layout deployed deploy",
	"layout kept improved",
	"layout kept within_tolerance",
	"layout rolled_back layout_regressed",
	"layout switched reengage",
	"multiversion candidate trigger",
	"multiversion deployed deploy",
	"multiversion kept improved",
	"multiversion kept within_tolerance",
	"multiversion rolled_back variants_exhausted",
	"multiversion switched reengage",
	"multiversion switched variant_regressed",
	"prefetch blocked fixed_strategy",
	"prefetch blocked rewrites_exhausted",
	"prefetch candidate escalate",
	"prefetch candidate trigger",
	"prefetch deployed deploy",
	"prefetch kept improved",
	"prefetch kept within_tolerance",
	"prefetch rolled_back regressed",
}

// TestEngineDigests runs the digest matrix, one parallel subtest per
// cell, and compares every cell with its digest in the "engine" section
// of results/digests.json; under REGEN_GOLDEN=1 it rewrites that section
// instead. On a mismatch it prints the cell's new digest, but a change
// here means simulated behaviour moved. The reasons-set check runs once
// every cell has finished.
func TestEngineDigests(t *testing.T) {
	regen := os.Getenv("REGEN_GOLDEN") != ""
	var want map[string]digest
	if !regen {
		readPins(t, "engine", &want)
	}
	var mu sync.Mutex
	reasons := map[string]bool{}
	digests := map[string]digest{}
	cells := digestCells()
	for _, c := range cells {
		c := c
		if c.slow && testing.Short() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, o, engine := c.run(t)
			dl, tr := o.Decisions(), o.Trace()
			if v := dl.Violations(); len(v) != 0 {
				t.Fatalf("lifecycle violations: %v", v)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("trace dropped %d events", tr.Dropped())
			}
			got.Decisions = hashDecisions(t, dl)
			got.Trace = hashNonPatchTrace(t, tr)
			checkPatchInstants(t, dl, tr)
			mu.Lock()
			defer mu.Unlock()
			for _, d := range dl.Decisions() {
				reasons[fmt.Sprintf("%s %s %s", engine, d.To, d.Reason)] = true
			}
			digests[c.name] = got
			if w, ok := want[c.name]; !regen && (!ok || got != w) {
				t.Errorf("digest drifted:\n got: %q: %+v,\nwant: %+v", c.name, got, w)
			}
		})
	}
	t.Cleanup(func() {
		if len(digests) < len(cells) { // -short or a -run filter skipped cells
			return
		}
		if regen && !t.Failed() {
			writePins(t, "engine", digests)
		}
		var got []string
		for r := range reasons {
			got = append(got, r)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(wantReasons, "\n") {
			t.Errorf("recorded (engine, state, reason) set drifted:\n got: %q\nwant: %q", got, wantReasons)
		}
	})
}

// pinsPath is the repository's pins file; see the root package's
// pins_test.go for its sections.
const pinsPath = "../../results/digests.json"

// readPins decodes one section of the pins file into v.
func readPins(t *testing.T, section string, v any) {
	t.Helper()
	file := loadPins(t)
	raw, ok := file[section]
	if !ok {
		t.Fatalf("%s has no %q section", pinsPath, section)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s section %q: %v", pinsPath, section, err)
	}
}

// writePins replaces one section of the pins file with v and keeps the
// others.
func writePins(t *testing.T, section string, v any) {
	t.Helper()
	file := loadPins(t)
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	file[section] = raw
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinsPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated section %q of %s", section, pinsPath)
}

func loadPins(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("%s: %v", pinsPath, err)
	}
	return file
}
