package cobra

import "repro/internal/obs"

// layoutEngine implements BOLT-style basic-block layout as a strategy
// engine: it accumulates the BTB taken-edge profile across optimizer
// windows, and when the coherent-pressure trigger names a hot loop it
// partitions the region into basic blocks, orders them hot-path-first
// (greedy extended trace selection) and deploys the reordered copy into
// the code cache as a resident variant. Judgement, rollback and
// re-engagement ride the one-word dispatch patch multi-version patching
// uses, so a phase change never costs a redeploy.
type layoutEngine struct {
	// edges accumulates the taken-edge profile across windows. Per-window
	// BTB rings are tiny (4 entries per sample), so a single window
	// rarely shows every edge of a region.
	edges map[BranchEdge]int64
}

// Harvest folds the window's taken edges into the accumulator. Edges
// whose branch executes inside the code cache are dropped: those are our
// own copies reporting relocated addresses, and folding them in would
// double-count the region under a shifted key space.
func (e *layoutEngine) Harvest(r *Runtime) {
	for _, es := range r.prof.TakenEdges() {
		if r.patcher.InCodeCache(es.Edge.From) {
			continue
		}
		e.edges[es.Edge] += es.Count
	}
}

// Propose walks the hot loops hottest first: a region with a resident
// copy re-engages it; otherwise the accumulated edge profile lays it out.
// Regions whose observed profile orders the blocks exactly as compiled
// are skipped without a candidate record — there is nothing to decide.
func (e *layoutEngine) Propose(r *Runtime, agg Window) []Proposal {
	var out []Proposal
	for _, ls := range r.prof.HotLoops(r.cfg.MinLoopSamples) {
		k := ls.Key
		if !r.eligible(k) {
			continue
		}
		if r.region(k).Deployment != nil {
			out = append(out, Proposal{Key: k})
			continue
		}
		spec := r.analyzer.BuildLayout(r.analyzer.RegionFor(k), e.edges)
		// A loop head placed after its latch would turn the latch edge
		// forward and the copy's loop key would vanish from the profiler:
		// the deployment would be unjudgeable.
		if len(spec.Blocks) < 2 || spec.Identity() || !spec.PlacesBefore(k.Head, k.BranchPC) {
			continue
		}
		out = append(out, Proposal{Key: k, Reason: "trigger",
			Specs: []VariantSpec{{Rewrite: RewriteLayout, Layout: &spec}},
			Evidence: obs.Evidence{
				Blocks: len(spec.Blocks), HotBlocks: spec.Hot, HotCoverage: spec.Coverage,
			}})
	}
	return out
}

// OnRegress restores the original entry word: with one resident copy
// there is nothing to switch to. The copy stays resident, and a later
// phase re-engages it with a single dispatch flip.
func (e *layoutEngine) OnRegress(*Runtime, *RegionState) Regression {
	return Regression{To: -1, Reason: "layout_regressed"}
}

// Decorate annotates the evidence with the deployed block layout.
func (e *layoutEngine) Decorate(_ LoopKey, st *RegionState, ev *obs.Evidence) {
	spec := st.Deployment.Variants[0].Layout
	ev.Variant = "layout"
	ev.Variants = len(st.Deployment.Variants)
	ev.Blocks = len(spec.Blocks)
	ev.HotBlocks = spec.Hot
	ev.HotCoverage = spec.Coverage
}
