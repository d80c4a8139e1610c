package cobra

import (
	"sort"

	"repro/internal/obs"
)

// prediction is the outcome of one virtual-speedup experiment, kept so
// every later judgement of the region can report predicted vs actual.
type prediction struct {
	ipc   float64 // predicted whole-program IPC with the patch in place
	delta float64 // predicted improvement over the baseline IPC
}

// causal ranks candidate rewrites by a Coz-style what-if experiment run
// inside the judging window: virtually speed up the region by the stall
// share the rewrite is modeled to remove, compute the whole-program IPC
// that would result, and deploy best-predicted-first. The prediction is
// recorded with the deploy decision and carried through every judgement
// so Explain() shows predicted-vs-actual.
type causal struct {
	preds map[LoopKey]prediction
}

// effect models the fraction of the region's coherent-stall cycles a
// rewrite removes. Removing a prefetch (nop) eliminates the coherent
// misses it caused outright; the exclusive-hint rewrites still perform
// the access but avoid the later upgrade/invalidation round-trip, about
// half the coherent cost on the simulated protocol. Scaled by the
// aggregate coherent share so a rewrite is never credited with stalls
// that are plain capacity misses.
func effect(rw Rewrite, coherentShare float64) float64 {
	switch rw {
	case RewriteNop:
		return coherentShare
	case RewriteExcl, RewriteBias:
		return 0.5 * coherentShare
	}
	return 0
}

// whatIf runs the virtual-speedup experiment for one region/rewrite:
// predicted IPC = Instr / (Cycles - saved), where saved is the modeled
// share of the region's observed stall cycles. Deterministic — pure
// arithmetic over the trigger-horizon aggregate and DEAR evidence.
func (e *causal) whatIf(r *Runtime, k LoopKey, loads []Delinquent, rw Rewrite, agg Window) prediction {
	if agg.Cycles == 0 {
		return prediction{}
	}
	// Observed stall evidence: DEAR-attributed latency of the region's
	// delinquent loads. Without DEAR attribution (prefetch/store-induced
	// sharing), fall back to charging the horizon's BUS_HITM events at
	// the coherent-miss latency, scaled by the loop's activity share.
	var stall float64
	for _, d := range loads {
		stall += float64(d.Count * d.AvgLatency())
	}
	if stall == 0 && agg.Samples > 0 {
		share := float64(r.prof.LoopActivity(k)) / float64(agg.Samples)
		stall = float64(agg.BusHitm) * float64(r.cfg.CoherentLatency) * share
	}
	saved := stall * effect(rw, agg.CoherentShare())
	if max := float64(agg.Cycles) / 2; saved > max {
		saved = max // a rewrite never halves total runtime; clamp the model
	}
	if saved <= 0 {
		return prediction{}
	}
	base := agg.IPC()
	pred := float64(agg.Instr) / (float64(agg.Cycles) - saved)
	return prediction{ipc: pred, delta: pred - base}
}

// candidate is one (region, rewrite) pair with its prediction.
type candidate struct {
	key   LoopKey
	rw    Rewrite
	slots []int
	pred  prediction
}

// Propose runs the what-if experiment for every eligible (region,
// rewrite) pair the model credits with a whole-program win and proposes
// each region's best-predicted rewrite, best first.
func (e *causal) Propose(r *Runtime, agg Window) []Proposal {
	loads := r.candidateLoads()
	var cands []candidate
	for _, k := range r.eligibleKeys(loads) {
		region := r.analyzer.RegionFor(k)
		for _, rw := range []Rewrite{RewriteNop, RewriteExcl, RewriteBias} {
			slots := r.selectPrefetches(region, loads[k], rw)
			if len(slots) == 0 {
				continue
			}
			if p := e.whatIf(r, k, loads[k], rw, agg); p.delta > 0 {
				cands = append(cands, candidate{key: k, rw: rw, slots: slots, pred: p})
			}
		}
	}
	// Rank by predicted whole-program IPC delta, best first; ties resolve
	// by region address then rewrite precedence so runs are deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].pred.delta != cands[j].pred.delta {
			return cands[i].pred.delta > cands[j].pred.delta
		}
		if cands[i].key.Head != cands[j].key.Head {
			return cands[i].key.Head < cands[j].key.Head
		}
		return cands[i].rw < cands[j].rw
	})
	var out []Proposal
	taken := map[LoopKey]bool{}
	for _, cand := range cands {
		if taken[cand.key] {
			continue // one rewrite per region per pass: the best-ranked
		}
		taken[cand.key] = true
		// Only a deployment makes the region live and its prediction read
		// again, so overwriting it for a proposal that never deploys is
		// harmless.
		e.preds[cand.key] = cand.pred
		out = append(out, Proposal{Key: cand.key, Reason: "what_if",
			Specs:    []VariantSpec{{Rewrite: cand.rw, Slots: cand.slots}},
			Evidence: obs.Evidence{PredictedIPC: cand.pred.ipc, PredictedDelta: cand.pred.delta}})
	}
	return out
}

// OnRegress rolls back and cools down: the experiment's prediction did
// not survive contact with the machine. No blacklist — a later phase
// re-runs the what-if ranking from fresh evidence.
func (e *causal) OnRegress(*Runtime, *RegionState) Regression {
	return Regression{To: -1, Reason: "regressed"}
}

// Decorate carries the deployed rewrite's prediction into every decision
// so Explain() shows predicted-vs-actual.
func (e *causal) Decorate(k LoopKey, _ *RegionState, ev *obs.Evidence) {
	if p, ok := e.preds[k]; ok {
		ev.PredictedIPC = p.ipc
		ev.PredictedDelta = p.delta
	}
}
