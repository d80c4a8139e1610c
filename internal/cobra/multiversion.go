package cobra

import "repro/internal/obs"

// multiVersion keeps every applicable rewrite of a hot region resident
// in the code cache and adapts to phase changes by switching the
// region's dispatch branch between variants. A switch is one slot write,
// one image generation, against a full rollback + redeploy cycle for the
// destructive engines.
type multiVersion struct{}

// Propose re-engages a region's resident table, or, on the first trigger,
// builds the table from every rewrite the §4 association filters accept.
func (multiVersion) Propose(r *Runtime, agg Window) []Proposal {
	loads := r.candidateLoads()
	var out []Proposal
	for _, k := range r.eligibleKeys(loads) {
		if r.region(k).Deployment != nil {
			out = append(out, Proposal{Key: k})
			continue
		}
		region := r.analyzer.RegionFor(k)
		var specs []VariantSpec
		for _, rw := range []Rewrite{RewriteNop, RewriteExcl, RewriteBias} {
			if slots := r.selectPrefetches(region, loads[k], rw); len(slots) > 0 {
				specs = append(specs, VariantSpec{Rewrite: rw, Slots: slots})
			}
		}
		if len(specs) > 0 {
			out = append(out, Proposal{Key: k, Reason: "trigger", Specs: specs,
				Evidence: obs.Evidence{Variants: len(specs)}})
		}
	}
	return out
}

// OnRegress flips to the next resident variant — no rollback, no
// redeploy — and restores the original code once the table is exhausted.
// Every engagement starts at variant 0, so the variants before the
// dispatched one are exactly those this phase already rejected.
func (multiVersion) OnRegress(_ *Runtime, st *RegionState) Regression {
	if next := st.Deployment.Active() + 1; next < len(st.Deployment.Variants) {
		return Regression{To: next, Reason: "variant_regressed"}
	}
	return Regression{To: -1, Reason: "variants_exhausted"}
}

// Decorate names the dispatched variant and the table size.
func (multiVersion) Decorate(_ LoopKey, st *RegionState, ev *obs.Evidence) {
	ev.Variant = "original"
	if v := st.Deployment.ActiveVariant(); v != nil {
		ev.Variant = v.Rewrite.String()
	}
	ev.Variants = len(st.Deployment.Variants)
}
