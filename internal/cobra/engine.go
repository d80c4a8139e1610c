package cobra

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Engine is a pluggable optimization strategy: the policy layer between
// profiling and patching. The patch lifecycle itself — eligibility,
// deployment, judgement, rollback, the counters and every decision-log
// record and trace instant — belongs to Control; an engine only answers
// its questions. All machine state is reached through the Control
// facade, so an engine can live outside this package (see
// internal/strategy).
type Engine interface {
	// Name is the registry name the engine was built under.
	Name() string
	// Propose reacts to a fired trigger: which regions to deploy, with
	// which rewrites or variants, in priority order, given the trigger
	// horizon aggregate agg. Proposals should name Eligible regions only.
	Propose(c *Control, agg Window) []Proposal
	// OnRegress answers what a deployed region whose judgement regressed
	// does next.
	OnRegress(c *Control, st *RegionState) Regression
	// Decorate adds the engine's own fields to the evidence of a decision
	// about deployed region k.
	Decorate(k LoopKey, st *RegionState, ev *obs.Evidence)
}

// Harvester is an optional Engine extension for engines that accumulate
// profile state across windows: Control calls Harvest once per optimizer
// pass, before judging.
type Harvester interface {
	Harvest(c *Control)
}

// Proposal is one deployment an engine asks Control to attempt.
type Proposal struct {
	Key LoopKey
	// Reason is the candidate decision's reason; Control records
	// "escalate" instead when the region's last decision was a rollback.
	Reason string
	// Specs is the version table to deploy; its first variant is
	// dispatched. Nil re-engages the region's resident table with one
	// dispatch switch instead — no candidate, no redeploy.
	Specs []VariantSpec
	// Block, when set, deploys nothing and ends the region's lifecycle
	// with this reason.
	Block string
	// Evidence carries the engine's own fields for the candidate decision.
	Evidence obs.Evidence
}

// Regression is an engine's answer to a regressed judgement.
type Regression struct {
	// To is the resident variant to dispatch instead; -1 restores the
	// original code and starts the cooldown.
	To int
	// Reason is the switched or rolled_back decision's reason.
	Reason string
	// Block, with To == -1, also bars the region from further patching,
	// with this reason.
	Block string
}

// EngineFactory builds an engine instance for one runtime.
type EngineFactory func(cfg Config) Engine

var engineRegistry = map[string]EngineFactory{}

// RegisterEngine adds a strategy engine to the registry. The default
// "prefetch" engine registers here; external packages (internal/strategy)
// register theirs from init so importing the package is enough to make
// its engines selectable by name.
func RegisterEngine(name string, f EngineFactory) {
	if name == "" || f == nil {
		panic("cobra: RegisterEngine with empty name or nil factory")
	}
	if _, dup := engineRegistry[name]; dup {
		panic(fmt.Sprintf("cobra: engine %q registered twice", name))
	}
	engineRegistry[name] = f
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engineRegistry))
	for n := range engineRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewEngine builds the named engine ("" selects the default prefetch
// engine).
func NewEngine(name string, cfg Config) (Engine, error) {
	if name == "" {
		name = "prefetch"
	}
	f, ok := engineRegistry[name]
	if !ok {
		return nil, fmt.Errorf("cobra: unknown strategy engine %q (have %v)", name, EngineNames())
	}
	return f(cfg), nil
}

func init() {
	RegisterEngine("prefetch", func(Config) Engine { return prefetchEngine{} })
}

// prefetchEngine is the historical built-in policy: nop / lfetch.excl /
// ld8.bias rewrites chosen by the Strategy precedence, one trace (or one
// in-place rewrite) per deployment, dropped on regression. Adaptive mode
// escalates a rolled-back region to the next rewrite; a fixed strategy
// blocks it.
type prefetchEngine struct{}

func (prefetchEngine) Name() string { return "prefetch" }

func (prefetchEngine) Propose(c *Control, agg Window) []Proposal {
	loads := c.CandidateLoads()
	var out []Proposal
	for _, k := range c.EligibleKeys(loads) {
		rw, ok := c.r.chooseRewrite(c.Region(k))
		if !ok {
			// A rolled-back region with no rewrite left to try ends the
			// lifecycle.
			out = append(out, Proposal{Key: k, Block: "rewrites_exhausted"})
			continue
		}
		slots := c.r.selectPrefetches(c.r.analyzer.RegionFor(k), loads[k], rw)
		out = append(out, Proposal{Key: k, Reason: "trigger", Specs: []VariantSpec{{Rewrite: rw, Slots: slots}}})
	}
	return out
}

func (prefetchEngine) OnRegress(c *Control, _ *RegionState) Regression {
	if c.r.cfg.Strategy != StrategyAdaptive {
		return Regression{To: -1, Reason: "regressed", Block: "fixed_strategy"}
	}
	return Regression{To: -1, Reason: "regressed"}
}

func (prefetchEngine) Decorate(LoopKey, *RegionState, *obs.Evidence) {}

// Control is the machine-state facade handed to strategy engines — the
// profiling, analysis and patching components plus the per-region
// adaptive state — and the owner of the patch lifecycle (lifecycle.go).
type Control struct {
	r *Runtime
}

// Control returns the engine facade of this runtime.
func (r *Runtime) Control() *Control { return &Control{r: r} }

// Config returns the runtime configuration.
func (c *Control) Config() Config { return c.r.cfg }

// Profiler exposes the aggregated system-wide profile.
func (c *Control) Profiler() *Profiler { return c.r.prof }

// Analyzer exposes binary analysis (regions, prefetch sites, segments).
func (c *Control) Analyzer() *Analyzer { return c.r.analyzer }

// Patcher exposes the binary patcher.
func (c *Control) Patcher() *Patcher { return c.r.patcher }

// Region returns the adaptive state of a loop, creating it on first use.
func (c *Control) Region(k LoopKey) *RegionState {
	st := c.r.regions[k]
	if st == nil {
		st = &RegionState{}
		c.r.regions[k] = st
	}
	return st
}

// Eligible reports whether loop k may enter the lifecycle now: it is a
// loop of the original binary (never one of our own copies), it is not
// live, cooling down or blocked — and no other key on the same loop head
// is live or blocked. Two backward branches can share one head, and the
// decision log is keyed by head, so a head is in at most one lifecycle
// at a time. Decided from runtime state only: the log may be disabled.
func (c *Control) Eligible(k LoopKey) bool {
	if c.r.patcher.InCodeCache(k.Head) || c.r.patcher.InCodeCache(k.BranchPC) || !c.r.analyzer.ValidLoop(k) {
		return false
	}
	if st := c.Region(k); st.Live() || st.Cooldown > 0 || st.Blocked {
		return false
	}
	for other, st := range c.r.regions {
		if other.Head == k.Head && other != k && (st.Live() || st.Blocked) {
			return false
		}
	}
	return true
}

// EligibleKeys returns the Eligible keys of loads in address order (map
// order must never leak into traces or decision logs).
func (c *Control) EligibleKeys(loads map[LoopKey][]Delinquent) []LoopKey {
	var keys []LoopKey
	for k := range loads {
		if c.Eligible(k) {
			keys = append(keys, k)
		}
	}
	sortLoopKeys(keys)
	return keys
}

// CandidateLoads maps each hot loop to the delinquent loads it contains
// (§4's selection pipeline). When the trigger fired but no load could be
// pinpointed by the DEAR, every hot loop becomes a candidate with nil
// loads — the paper's loop-boundary fallback.
func (c *Control) CandidateLoads() map[LoopKey][]Delinquent {
	loops := c.r.prof.HotLoops(c.r.cfg.MinLoopSamples)
	if len(loops) == 0 {
		return nil
	}
	delinq := c.r.prof.DelinquentLoads(c.r.cfg.MinDelinquentSamples)
	regionLoads := map[LoopKey][]Delinquent{}
	for _, d := range delinq {
		for _, ls := range loops {
			if d.PC >= ls.Key.Head && d.PC <= ls.Key.BranchPC {
				regionLoads[ls.Key] = append(regionLoads[ls.Key], d)
				break // loops are sorted hottest-first
			}
		}
	}
	if len(regionLoads) == 0 {
		for _, ls := range loops {
			regionLoads[ls.Key] = nil
		}
	}
	return regionLoads
}

// SelectPrefetches applies the §4 association filters for a rewrite.
func (c *Control) SelectPrefetches(region Region, loads []Delinquent, rw Rewrite) []int {
	return c.r.selectPrefetches(region, loads, rw)
}
