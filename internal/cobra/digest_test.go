package cobra_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
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
	branchy := func(launches int, tolerance *float64) func(t *testing.T) (digest, *obs.Observer, string) {
		return func(t *testing.T) (digest, *obs.Observer, string) {
			cfg := layoutSmokeConfig()
			cfg.Obs = obs.New(obs.Config{Trace: true, Decisions: true})
			if tolerance != nil {
				cfg.RollbackTolerance = *tolerance
			}
			_, cb, m, _ := launchBranchy(t, 400, launches, cfg)
			return digest{Cycles: m.GlobalCycle(), Stats: cb.Stats()}, cfg.Obs, "layout"
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

// wantDigests pins every cell at the behaviour of the engines before the
// patch lifecycle was shared between them.
var wantDigests = map[string]digest{
	"phased/prefetch-adaptive-trace": {
		Cycles:    2746945,
		Stats:     cobra.Stats{SamplesSeen: 17772, OptimizerPasses: 547, Triggers: 267, PatchesApplied: 2, PatchesRolledBack: 1, PrefetchesNopped: 10, PrefetchesExcl: 10, TracesEmitted: 2},
		Decisions: "ffd1e560991a7e2192450512eeb965f277ad92c618af2d96ab4f41fa368b9d0c",
		Trace:     "25f13d1fa3561bc9b09f84dcc709f54f8bfb75cc129723eec6f24c44d3e01d88",
	},
	"phased/prefetch-adaptive-inplace": {
		Cycles:    2325728,
		Stats:     cobra.Stats{SamplesSeen: 14767, OptimizerPasses: 464, Triggers: 211, PatchesApplied: 2, PatchesRolledBack: 2, PrefetchesNopped: 10, PrefetchesExcl: 10},
		Decisions: "b6af44c68218f6c9fe486af2e6d31cd90024898bda20c071059c68285561c9fd",
		Trace:     "c7bc47d1da0952519ffb2a8d7bd55070768b6f50985b0da59b00ab40a6f8717b",
	},
	"phased/prefetch-noprefetch": {
		Cycles:    2760041,
		Stats:     cobra.Stats{SamplesSeen: 17876, OptimizerPasses: 550, Triggers: 267, PatchesApplied: 1, PatchesRolledBack: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "9cab74aa5562271f79f8ab5d67a9a0afcb3b10af56490e5083f84e9fcdf4261a",
		Trace:     "19132fe833ab718358b0f3ef9d56512da2cadd4c4fe04689db948c527d7ffebe",
	},
	"phased/multiversion": {
		Cycles:    2764949,
		Stats:     cobra.Stats{SamplesSeen: 17882, OptimizerPasses: 551, Triggers: 273, PatchesApplied: 1, PatchesRolledBack: 1, PrefetchesNopped: 10, TracesEmitted: 1, VariantSwitches: 1},
		Decisions: "13ded4abd7e2d2c143c642d152aaa119db67a7a30e6fdfb6872fcc85f7cfeb1c",
		Trace:     "1fede9da4c0031f30a946f3ecb322d808e5f9c883906f3923f24b9b9d2c395a5",
	},
	"phased/causal": {
		Cycles:    2746559,
		Stats:     cobra.Stats{SamplesSeen: 17779, OptimizerPasses: 547, Triggers: 237, PatchesApplied: 2, PatchesRolledBack: 1, PrefetchesNopped: 30, TracesEmitted: 2},
		Decisions: "0d5b9013b9e587f80c7a3341688e9aae3cabcef9e9fb3caa89543843a12280c0",
		Trace:     "df18beb6c2de3fe07cc3b76e3dd63b5db3d2cfb0c5b40eb38ee8eb54859b0c34",
	},
	"pointerchase/prefetch-adaptive-trace": {
		Cycles:    17456627,
		Stats:     cobra.Stats{SamplesSeen: 104881, OptimizerPasses: 3420, Triggers: 3418, PatchesApplied: 1, PatchesRolledBack: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "91edcaea84c50b6da966a5274b9f7fc162f655738dfac11e689f0af33eafd2b6",
		Trace:     "2db064d1c3bb1552d4edfd48ef8233351ba5733f19833e2f2fc86e654890ddbd",
	},
	"pointerchase/prefetch-adaptive-inplace": {
		Cycles:    17515246,
		Stats:     cobra.Stats{SamplesSeen: 105097, OptimizerPasses: 3434, Triggers: 3432, PatchesApplied: 1, PatchesRolledBack: 1, PrefetchesNopped: 10},
		Decisions: "113b8ae5370e2418d7c751f11bad4155b190a7c3656f278ade51e2633217b5db",
		Trace:     "079f1f5a2f90cf6185780d28e4395950fcf18c8322973138a78a0cf4de522d55",
	},
	"pointerchase/prefetch-noprefetch": {
		Cycles:    17456627,
		Stats:     cobra.Stats{SamplesSeen: 104881, OptimizerPasses: 3420, Triggers: 3418, PatchesApplied: 1, PatchesRolledBack: 1, PrefetchesNopped: 10, TracesEmitted: 1},
		Decisions: "86adcce5b00b2aecc1ef50c6e9c172680ff9f290b084b020a4c59485a61be877",
		Trace:     "2db064d1c3bb1552d4edfd48ef8233351ba5733f19833e2f2fc86e654890ddbd",
	},
	"pointerchase/multiversion": {
		Cycles:    12846957,
		Stats:     cobra.Stats{SamplesSeen: 78631, OptimizerPasses: 2512, Triggers: 2510, PatchesApplied: 1, PrefetchesNopped: 10, TracesEmitted: 2, VariantSwitches: 1},
		Decisions: "05a4e4db349b948e95fd2f162b0047d3f49b8b999fafd56204032174ecc1d378",
		Trace:     "4eda21603ad8322bdb67b997a55a2c0e2387706387190d612b8f45cdc9eaa4b4",
	},
	"pointerchase/causal": {
		Cycles:    17473439,
		Stats:     cobra.Stats{SamplesSeen: 105011, OptimizerPasses: 3421, Triggers: 3419, PatchesApplied: 11, PatchesRolledBack: 11, PrefetchesNopped: 110, TracesEmitted: 11},
		Decisions: "80ec2151459fb8dcf38c03ea673ca5eacd29ca3201663eb194ec74628cbce3d1",
		Trace:     "e5f884fe75fe47c0989f1ba586d7db2b877406f64fb2a02fc3c5cd3810ddae47",
	},
	"pointerchase/prefetch-bias": {
		Cycles:    12246626,
		Stats:     cobra.Stats{SamplesSeen: 75195, OptimizerPasses: 2393, Triggers: 2391, PatchesApplied: 1, LoadsBiased: 1, TracesEmitted: 1},
		Decisions: "db097b21a38f1e83ac975959ea6bc7820d6744bd9afa2c4f48713937f54e7471",
		Trace:     "a32221c8c872792a90c9e8c5224577bbb56f195053fa624e9cfd521a52f18fa7",
	},
	"branchy/layout-240": {
		Cycles:    27857799,
		Stats:     cobra.Stats{SamplesSeen: 182444, OptimizerPasses: 25838, Triggers: 25836, PatchesApplied: 1, TracesEmitted: 1},
		Decisions: "95fb7a856b7beacfd26ae8e8933f78c0878640889d5e9c0c45fc9c7694ccd924",
		Trace:     "bb197b12fa95e1bcbb6e3217c0689b09ace3444209a640035cf2a356bc1e1b47",
	},
	"branchy/layout-60-tol-0.5": {
		Cycles:    6963538,
		Stats:     cobra.Stats{SamplesSeen: 45505, OptimizerPasses: 6467, Triggers: 6465, PatchesApplied: 1, PatchesRolledBack: 30, TracesEmitted: 1, VariantSwitches: 29},
		Decisions: "043836b431efdaeec1d030a2b8f909f51586290370441a4e3f19929a47dfa47a",
		Trace:     "17250164de9cf434729b0905dedcdabeaa4ff6b47ef5ae4dd32d53131ad60e2f",
	},
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

// TestEngineDigests runs the digest matrix and compares every cell with
// its pinned digest. On a mismatch it prints the cell's new digest in Go
// syntax, but a change here means simulated behaviour moved.
func TestEngineDigests(t *testing.T) {
	reasons := map[string]bool{}
	skipped := false
	for _, c := range digestCells() {
		c := c
		if c.slow && testing.Short() {
			skipped = true
			continue
		}
		t.Run(c.name, func(t *testing.T) {
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
			for _, d := range dl.Decisions() {
				reasons[fmt.Sprintf("%s %s %s", engine, d.To, d.Reason)] = true
			}
			if want, ok := wantDigests[c.name]; !ok || got != want {
				t.Errorf("digest drifted:\n got: %q: %#v,\nwant: %#v", c.name, got, want)
			}
		})
	}
	if skipped {
		return
	}
	var got []string
	for r := range reasons {
		got = append(got, r)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(wantReasons, "\n") {
		t.Errorf("recorded (engine, state, reason) set drifted:\n got: %q\nwant: %q", got, wantReasons)
	}
}
