package cobra

import "repro/internal/obs"

// The patch lifecycle, owned by the Runtime and written once for every
// engine: a trigger makes a region a candidate, a deployment dispatches
// its version table, every evaluateWindows loop-active windows the live
// variant is judged — kept, switched to another resident variant, or
// rolled back (and perhaps blocked) — and a rolled-back region either
// re-enters as a candidate or re-engages its resident table. Each
// transition is counted here and reported to the observer as one
// decision fact; engines only answer Propose, OnRegress and Decorate.

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
			r.record(k, st, obs.StateKept, reason, ev, now, 0)
			continue
		}

		act := r.engine.OnRegress(r, st)
		// The decision below ends the live variant dispatched at since.
		since := st.DeployedAt
		// A switch that cannot land falls back to restoring the original.
		if act.To >= 0 && r.patcher.Switch(st.Deployment, act.To) == nil {
			r.engage(st, win, now)
			r.stats.VariantSwitches++
			r.engine.Decorate(k, st, &ev)
			r.record(k, st, obs.StateSwitched, act.Reason, ev, now, since)
			continue
		}
		if r.patcher.Switch(st.Deployment, -1) == nil {
			r.stats.PatchesRolledBack++
		}
		st.Cooldown = evaluateWindows
		ev.CooldownUntil = now + int64(st.Cooldown)*r.cfg.OptimizeInterval
		r.engine.Decorate(k, st, &ev)
		r.record(k, st, obs.StateRolledBack, act.Reason, ev, now, since)
		if act.Block != "" {
			st.Blocked = true
			r.record(k, st, obs.StateBlocked, act.Block, ev, now, 0)
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
		r.record(k, st, obs.StateBlocked, p.Block, ev, now, 0)
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
		r.record(k, st, obs.StateSwitched, "reengage", ev, now, 0)
		return true
	}
	// Trigger evidence selected the region: it becomes a candidate even
	// if the deployment below still fails.
	ev.Rewrite = p.Specs[0].Rewrite.String()
	reason := p.Reason
	if r.obs.Decisions().State(uint64(k.Head)) == obs.StateRolledBack {
		reason = "escalate"
	}
	r.record(k, st, obs.StateCandidate, reason, ev, now, 0)
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
	r.record(k, st, obs.StateDeployed, "deploy", ev, now, 0)
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

// record is the single emission point of the lifecycle: it reports one
// transition of region k to the observer, with a deployment's dispatched
// variant. since is the dispatch cycle of the live variant the
// transition ends, 0 if it ends none.
func (r *Runtime) record(k LoopKey, st *RegionState, to obs.PatchState, reason string, ev obs.Evidence, now, since int64) {
	f := obs.DecisionFact{
		Cycle: now, Region: uint64(k.Head), Window: r.windows,
		To: to, Reason: reason, Evidence: ev, ActiveSince: since,
	}
	if to == obs.StateDeployed {
		v := st.Deployment.ActiveVariant()
		f.Slots, f.Rewritten, f.Trace = len(v.writes), v.RewrittenPrefetches, v.TraceEntry >= 0
	}
	r.obs.Decided(f)
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
