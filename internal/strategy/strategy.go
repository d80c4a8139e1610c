// Package strategy holds COBRA's pluggable optimization strategies: the
// policy engines that decide what to patch and what a regressed patch
// does next, built on the cobra.Engine interface and registry. The patch
// lifecycle they steer — judgement, counters, decision records, trace
// instants — is cobra.Control's, shared by every engine.
//
// Importing this package registers the engines beyond the built-in
// default (which lives in internal/cobra itself):
//
//   - "prefetch" (built-in): the historical nop / lfetch.excl / ld8.bias
//     precedence with destructive patch/rollback re-adaptation.
//   - "multiversion": profile-guided multi-version rewriting (Meng et
//     al.) — every applicable rewrite of a hot region is deployed into
//     the code cache at once and kept resident; phase changes flip the
//     region's dispatch branch between variants (a one-word patch, one
//     journal record) instead of churning rollback + redeploy.
//   - "causal": Coz-style causal what-if ranking (Curtsinger & Berger) —
//     before committing a deploy, each candidate's predicted
//     whole-program IPC is computed by virtually removing the share of
//     the region's observed stall cycles the rewrite is modeled to save,
//     candidates are ranked by predicted delta, and the decision log
//     records prediction vs realized outcome.
//   - "layout": BOLT-style basic-block layout (Panchenko et al.) — the
//     BTB taken-edge profile accumulated across optimizer windows drives
//     greedy extended-trace selection over a hot region's basic blocks;
//     the hot-path-first reordered copy is emitted into the code cache as
//     a resident variant and dispatched, judged and rolled back through
//     the same one-word entry patch multi-version dispatch uses.
package strategy

import "repro/internal/cobra"

// Names returns every registered strategy engine name, sorted.
func Names() []string { return cobra.EngineNames() }

func init() {
	cobra.RegisterEngine("multiversion", func(cobra.Config) cobra.Engine { return multiVersion{} })
	cobra.RegisterEngine("causal", func(cfg cobra.Config) cobra.Engine { return newCausal(cfg) })
	cobra.RegisterEngine("layout", func(cobra.Config) cobra.Engine { return newLayout() })
}
