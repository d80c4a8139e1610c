package cobra

import (
	"fmt"

	"repro/internal/obs"
)

// The patch lifecycle, owned by the Runtime and written once for every
// engine: a trigger makes a region a candidate, a deployment dispatches
// its version table, every evaluateWindows loop-active windows the live
// variant is judged — kept, switched to another resident variant, or
// rolled back (and perhaps blocked) — and a rolled-back region either
// re-enters as a candidate or re-engages its resident table. Each
// transition is counted and emitted here, as one decision-log record
// plus one trace instant; engines only answer Propose, OnRegress and
// Decorate.

// maxDeploysPerPass bounds how many regions one optimizer pass deploys
// or re-engages, so a regressing rewrite is caught and abandoned before
// it is compounded across the whole program.
const maxDeploysPerPass = 2

// evaluateWindows is how many loop-active windows a live variant runs
// before each judgement, and how many optimizer passes a rolled-back
// region waits before it may deploy again.
const evaluateWindows = 2

// judge re-evaluates every live deployment against its pre-patch
// baselines, in address order (judgements are per-region independent,
// so order cannot change outcomes, but map order would scramble the
// trace and decision log). Only windows in which the live variant's loop
// ran count towards a judgement.
func (r *Runtime) judge(win Window, now int64) {
	if h, ok := r.engine.(Harvester); ok {
		h.Harvest(r)
	}
	for _, k := range r.liveKeys() {
		st := r.regions[k]
		if !r.observeWindow(st, win) {
			continue
		}
		tol := r.cfg.RollbackTolerance
		regressed := st.ActiveAgg.IPC() < st.Baseline*(1-tol) ||
			st.GlobalAgg.IPC() < st.GlobalBase*(1-tol)
		ev := obs.Evidence{
			BaselineIPC:       st.Baseline,
			PatchedIPC:        st.ActiveAgg.IPC(),
			GlobalBaselineIPC: st.GlobalBase,
			GlobalIPC:         st.GlobalAgg.IPC(),
			Tolerance:         tol,
			ActiveWindows:     st.ActiveWindows,
			Rewrite:           st.Rewrite.String(),
		}
		// Keep judging periodically: the next period starts fresh.
		st.Judged = true
		st.ActiveWindows, st.ActiveAgg, st.GlobalAgg = 0, Window{}, Window{}
		if !regressed {
			reason := "within_tolerance"
			if ev.PatchedIPC >= ev.BaselineIPC {
				reason = "improved"
			}
			r.engine.Decorate(k, st, &ev)
			r.record(k, st, obs.StateKept, reason, ev, now)
			continue
		}

		act := r.engine.OnRegress(r, st)
		if tr := r.obs.Trace(); tr != nil {
			tr.Span("patch", fmt.Sprintf("active %s @%#x", ev.Rewrite, k.Head),
				obs.TIDPatch, st.DeployedAt, now, map[string]any{"region": k.Head})
		}
		// A switch that cannot land falls back to restoring the original.
		if act.To >= 0 && r.patcher.Switch(st.Deployment, act.To) == nil {
			r.engage(st, win, now)
			r.stats.VariantSwitches++
			r.engine.Decorate(k, st, &ev)
			r.record(k, st, obs.StateSwitched, act.Reason, ev, now)
			continue
		}
		if r.patcher.Switch(st.Deployment, -1) == nil {
			r.stats.PatchesRolledBack++
		}
		st.Cooldown = evaluateWindows
		ev.CooldownUntil = now + int64(st.Cooldown)*r.cfg.OptimizeInterval
		r.engine.Decorate(k, st, &ev)
		r.record(k, st, obs.StateRolledBack, act.Reason, ev, now)
		if act.Block != "" {
			st.Blocked = true
			r.record(k, st, obs.StateBlocked, act.Block, ev, now)
		}
	}
}

// propose runs the engine's proposals for a fired trigger. Deployment is
// staged: while any live variant still awaits its first judgement
// nothing new deploys, and one pass deploys at most maxDeploysPerPass.
func (r *Runtime) propose(agg Window, now int64) {
	if r.anyUnjudged() {
		return
	}
	deployed := 0
	for _, p := range r.engine.Propose(r, agg) {
		if deployed == maxDeploysPerPass {
			return
		}
		// An earlier deployment this pass may have claimed the loop head.
		if !r.eligible(p.Key) {
			continue
		}
		if r.deploy(p, agg, now) {
			deployed++
		}
	}
}

// deploy carries out one proposal and reports whether it dispatched.
func (r *Runtime) deploy(p Proposal, agg Window, now int64) bool {
	k, st := p.Key, r.regions[p.Key]
	ev := p.Evidence
	ev.CoherentShare, ev.BusHitm = agg.CoherentShare(), uint64(agg.BusHitm)
	switch {
	case p.Block != "":
		st.Blocked = true
		r.record(k, st, obs.StateBlocked, p.Block, ev, now)
		return false
	case p.Specs == nil:
		// Re-engage the resident table: one dispatch switch
		// (rolled_back → switched is the transition resident variants
		// exist to make legal).
		if st.Deployment == nil || r.patcher.Switch(st.Deployment, 0) != nil {
			return false
		}
		r.engage(st, agg, now)
		r.stats.VariantSwitches++
		ev.Rewrite, ev.BaselineIPC, ev.GlobalBaselineIPC = st.Rewrite.String(), st.Baseline, st.GlobalBase
		r.engine.Decorate(k, st, &ev)
		r.record(k, st, obs.StateSwitched, "reengage", ev, now)
		return true
	}
	// Trigger evidence selected the region: it becomes a candidate even
	// if the deployment below still fails.
	ev.Rewrite = p.Specs[0].Rewrite.String()
	reason := p.Reason
	if r.obs.Decisions().State(uint64(k.Head)) == obs.StateRolledBack {
		reason = "escalate"
	}
	r.record(k, st, obs.StateCandidate, reason, ev, now)
	vs, err := r.patcher.DeployVariants(r.analyzer.RegionFor(k), p.Specs)
	if err != nil || r.patcher.Switch(vs, 0) != nil {
		return false
	}
	st.Deployment = vs
	r.engage(st, agg, now)
	switch st.Rewrite {
	case RewriteNop:
		st.TriedNop = true
	case RewriteExcl:
		st.TriedExcl = true
	}
	r.countDeploy(vs)
	ev.BaselineIPC, ev.GlobalBaselineIPC = st.Baseline, st.GlobalBase
	r.engine.Decorate(k, st, &ev)
	r.record(k, st, obs.StateDeployed, "deploy", ev, now)
	return true
}

// engage arms the judgement of st's freshly dispatched variant:
// baselines re-anchor on the unbiased pre-patch EMAs, with win as the
// fallback when the loop was never profiled unpatched.
func (r *Runtime) engage(st *RegionState, win Window, now int64) {
	st.Rewrite = st.Deployment.ActiveVariant().Rewrite
	st.Baseline = st.PreIPC
	if st.Baseline == 0 {
		st.Baseline = win.IPC()
	}
	st.GlobalBase = r.globalEMA
	st.Judged = false
	st.ActiveWindows, st.ActiveAgg, st.GlobalAgg = 0, Window{}, Window{}
	st.DeployedAt = now
}

// countDeploy charges a fresh deployment to the activity counters: every
// copy it emitted is a trace, and the dispatched variant's rewritten
// instructions count under its rewrite.
func (r *Runtime) countDeploy(vs *VariantSet) {
	r.stats.PatchesApplied++
	v := vs.ActiveVariant()
	if v.TraceEntry >= 0 {
		r.stats.TracesEmitted += int64(len(vs.Variants))
	}
	n := int64(v.RewrittenPrefetches)
	switch v.Rewrite {
	case RewriteNop:
		r.stats.PrefetchesNopped += n
	case RewriteExcl:
		r.stats.PrefetchesExcl += n
	case RewriteBias:
		r.stats.LoadsBiased += n
	}
}

// observeWindow folds one profile window into a live region's judgement
// aggregates and reports whether enough loop-active windows accumulated
// to judge. The global aggregate catches variants that speed their own
// loop while slowing a downstream phase.
func (r *Runtime) observeWindow(st *RegionState, win Window) bool {
	st.GlobalAgg.Cycles += win.Cycles
	st.GlobalAgg.Instr += win.Instr
	if r.prof.LoopActivity(st.Deployment.ActiveVariant().ActiveKey) >= r.cfg.MinLoopSamples {
		st.ActiveWindows++
		st.ActiveAgg.Samples += win.Samples
		st.ActiveAgg.Cycles += win.Cycles
		st.ActiveAgg.Instr += win.Instr
		st.ActiveAgg.L2Misses += win.L2Misses
		st.ActiveAgg.BusHitm += win.BusHitm
	}
	return st.ActiveWindows >= evaluateWindows
}

// record is the single emission point of the lifecycle: one decision-log
// record and one trace instant per transition of region k.
func (r *Runtime) record(k LoopKey, st *RegionState, to obs.PatchState, reason string, ev obs.Evidence, now int64) {
	r.obs.Decisions().Record(now, uint64(k.Head), r.windows, to, reason, ev)
	tr := r.obs.Trace()
	if tr == nil {
		return
	}
	name := string(to)
	args := map[string]any{"region": k.Head}
	switch to {
	case obs.StateCandidate:
		name = "candidate " + ev.Rewrite
		args["coherent_share"] = ev.CoherentShare
	case obs.StateDeployed:
		v := st.Deployment.ActiveVariant()
		name = "deployed " + ev.Rewrite
		args["slots"] = len(v.writes)
		args["rewritten"] = v.RewrittenPrefetches
		args["trace"] = v.TraceEntry >= 0
		args["baseline_ipc"] = ev.BaselineIPC
	case obs.StateBlocked:
		args["reason"] = reason
	case obs.StateSwitched:
		name = "switched " + ev.Variant
		args["variant"] = ev.Variant
		fallthrough
	default: // kept, rolled back, switched: the judgement's numbers
		if to == obs.StateRolledBack {
			name = "rolled back"
		}
		args["baseline_ipc"] = ev.BaselineIPC
		args["patched_ipc"] = ev.PatchedIPC
	}
	tr.Instant("patch", fmt.Sprintf("%s @%#x", name, k.Head), obs.TIDPatch, now, args)
}

// liveKeys returns the keys of regions with a dispatched variant, in
// address order.
func (r *Runtime) liveKeys() []LoopKey {
	var keys []LoopKey
	for k, st := range r.regions {
		if st.Live() {
			keys = append(keys, k)
		}
	}
	sortLoopKeys(keys)
	return keys
}

// anyUnjudged reports whether any live variant still awaits its first
// judgement.
func (r *Runtime) anyUnjudged() bool {
	for _, st := range r.regions {
		if st.Live() && !st.Judged {
			return true
		}
	}
	return false
}
