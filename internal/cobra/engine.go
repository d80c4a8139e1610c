package cobra

import "repro/internal/obs"

// Engine is an optimization strategy's policy: the layer between
// profiling and patching. The patch lifecycle itself — eligibility,
// deployment, judgement, rollback, the counters and every decision-log
// record and trace instant — belongs to the Runtime (lifecycle.go); an
// engine only answers its questions. newEngine picks one per Strategy.
type Engine interface {
	// Propose reacts to a fired trigger: which regions to deploy, with
	// which rewrites or variants, in priority order, given the trigger
	// horizon aggregate agg. Proposals should name eligible regions only.
	Propose(r *Runtime, agg Window) []Proposal
	// OnRegress answers what a deployed region whose judgement regressed
	// does next.
	OnRegress(r *Runtime, st *RegionState) Regression
	// Decorate adds the engine's own fields to the evidence of a decision
	// about deployed region k.
	Decorate(k LoopKey, st *RegionState, ev *obs.Evidence)
}

// Harvester is an optional Engine extension for engines that accumulate
// profile state across windows: the Runtime calls Harvest once per
// optimizer pass, before judging.
type Harvester interface {
	Harvest(r *Runtime)
}

// Proposal is one deployment an engine asks the Runtime to attempt.
type Proposal struct {
	Key LoopKey
	// Reason is the candidate decision's reason; the Runtime records
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

// newEngine returns the engine of cfg.Strategy: the multiversion,
// causal and layout engines for their strategies, the prefetch engine for
// every other.
func newEngine(cfg Config) Engine {
	switch cfg.Strategy {
	case StrategyMultiVersion:
		return multiVersion{}
	case StrategyCausal:
		return &causal{preds: map[LoopKey]prediction{}}
	case StrategyLayout:
		return &layoutEngine{edges: map[BranchEdge]int64{}}
	}
	return prefetchEngine{}
}

// prefetchEngine is the historical built-in policy: nop / lfetch.excl /
// ld8.bias rewrites chosen by the Strategy precedence, one trace (or one
// in-place rewrite) per deployment, dropped on regression. Adaptive mode
// escalates a rolled-back region to the next rewrite; a fixed strategy
// blocks it.
type prefetchEngine struct{}

func (prefetchEngine) Propose(r *Runtime, agg Window) []Proposal {
	loads := r.candidateLoads()
	var out []Proposal
	for _, k := range r.eligibleKeys(loads) {
		rw, ok := r.chooseRewrite(r.region(k))
		if !ok {
			// A rolled-back region with no rewrite left to try ends the
			// lifecycle.
			out = append(out, Proposal{Key: k, Block: "rewrites_exhausted"})
			continue
		}
		slots := r.selectPrefetches(r.analyzer.RegionFor(k), loads[k], rw)
		out = append(out, Proposal{Key: k, Reason: "trigger", Specs: []VariantSpec{{Rewrite: rw, Slots: slots}}})
	}
	return out
}

func (prefetchEngine) OnRegress(r *Runtime, _ *RegionState) Regression {
	if r.cfg.Strategy != StrategyAdaptive {
		return Regression{To: -1, Reason: "regressed", Block: "fixed_strategy"}
	}
	return Regression{To: -1, Reason: "regressed"}
}

func (prefetchEngine) Decorate(LoopKey, *RegionState, *obs.Evidence) {}

// region returns the adaptive state of a loop, creating it on first use.
func (r *Runtime) region(k LoopKey) *RegionState {
	st := r.regions[k]
	if st == nil {
		st = &RegionState{}
		r.regions[k] = st
	}
	return st
}

// eligible reports whether loop k may enter the lifecycle now: it is a
// loop of the original binary (never one of our own copies), it is not
// live, cooling down or blocked — and no other key on the same loop head
// is live or blocked. Two backward branches can share one head, and the
// decision log is keyed by head, so a head is in at most one lifecycle
// at a time. Decided from runtime state only: the log may be disabled.
func (r *Runtime) eligible(k LoopKey) bool {
	if r.patcher.InCodeCache(k.Head) || r.patcher.InCodeCache(k.BranchPC) || !r.analyzer.ValidLoop(k) {
		return false
	}
	if st := r.region(k); st.Live() || st.Cooldown > 0 || st.Blocked {
		return false
	}
	for other, st := range r.regions {
		if other.Head == k.Head && other != k && (st.Live() || st.Blocked) {
			return false
		}
	}
	return true
}

// eligibleKeys returns the eligible keys of loads in address order (map
// order must never leak into traces or decision logs).
func (r *Runtime) eligibleKeys(loads map[LoopKey][]Delinquent) []LoopKey {
	var keys []LoopKey
	for k := range loads {
		if r.eligible(k) {
			keys = append(keys, k)
		}
	}
	sortLoopKeys(keys)
	return keys
}

// candidateLoads maps each hot loop to the delinquent loads it contains
// (§4's selection pipeline). When the trigger fired but no load could be
// pinpointed by the DEAR, every hot loop becomes a candidate with nil
// loads — the paper's loop-boundary fallback.
func (r *Runtime) candidateLoads() map[LoopKey][]Delinquent {
	loops := r.prof.HotLoops(r.cfg.MinLoopSamples)
	if len(loops) == 0 {
		return nil
	}
	delinq := r.prof.DelinquentLoads(r.cfg.MinDelinquentSamples)
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
