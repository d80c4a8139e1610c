package strategy

import (
	"repro/internal/cobra"
	"repro/internal/obs"
)

// multiVersion keeps every applicable rewrite of a hot region resident
// in the code cache and adapts to phase changes by switching the
// region's dispatch branch between variants. A switch is one journaled
// one-word patch (ia64.Image.SyncDecodeStats replays exactly one slot),
// against a full rollback + redeploy cycle for the destructive engines.
type multiVersion struct{}

func (multiVersion) Name() string { return "multiversion" }

// Propose re-engages a region's resident table, or, on the first trigger,
// builds the table from every rewrite the §4 association filters accept.
func (multiVersion) Propose(c *cobra.Control, agg cobra.Window) []cobra.Proposal {
	loads := c.CandidateLoads()
	var out []cobra.Proposal
	for _, k := range c.EligibleKeys(loads) {
		if c.Region(k).Deployment != nil {
			out = append(out, cobra.Proposal{Key: k})
			continue
		}
		region := c.Analyzer().RegionFor(k)
		var specs []cobra.VariantSpec
		for _, rw := range []cobra.Rewrite{cobra.RewriteNop, cobra.RewriteExcl, cobra.RewriteBias} {
			if slots := c.SelectPrefetches(region, loads[k], rw); len(slots) > 0 {
				specs = append(specs, cobra.VariantSpec{Rewrite: rw, Slots: slots})
			}
		}
		if len(specs) > 0 {
			out = append(out, cobra.Proposal{Key: k, Reason: "trigger", Specs: specs,
				Evidence: obs.Evidence{Variants: len(specs)}})
		}
	}
	return out
}

// OnRegress flips to the next resident variant — no rollback, no
// redeploy — and restores the original code once the table is exhausted.
// Every engagement starts at variant 0, so the variants before the
// dispatched one are exactly those this phase already rejected.
func (multiVersion) OnRegress(_ *cobra.Control, st *cobra.RegionState) cobra.Regression {
	if next := st.Deployment.Active() + 1; next < len(st.Deployment.Variants) {
		return cobra.Regression{To: next, Reason: "variant_regressed"}
	}
	return cobra.Regression{To: -1, Reason: "variants_exhausted"}
}

// Decorate names the dispatched variant and the table size.
func (multiVersion) Decorate(_ cobra.LoopKey, st *cobra.RegionState, ev *obs.Evidence) {
	ev.Variant = "original"
	if v := st.Deployment.ActiveVariant(); v != nil {
		ev.Variant = v.Rewrite.String()
	}
	ev.Variants = len(st.Deployment.Variants)
}
