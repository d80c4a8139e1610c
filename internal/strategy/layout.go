package strategy

import (
	"repro/internal/cobra"
	"repro/internal/obs"
)

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
	edges map[cobra.BranchEdge]int64
}

func newLayout() *layoutEngine {
	return &layoutEngine{edges: map[cobra.BranchEdge]int64{}}
}

func (e *layoutEngine) Name() string { return "layout" }

// Harvest folds the window's taken edges into the accumulator. Edges
// whose branch executes inside the code cache are dropped: those are our
// own copies reporting relocated addresses, and folding them in would
// double-count the region under a shifted key space.
func (e *layoutEngine) Harvest(c *cobra.Control) {
	for _, es := range c.Profiler().TakenEdges() {
		if c.Patcher().InCodeCache(es.Edge.From) {
			continue
		}
		e.edges[es.Edge] += es.Count
	}
}

// Propose walks the hot loops hottest first: a region with a resident
// copy re-engages it; otherwise the accumulated edge profile lays it out.
// Regions whose observed profile orders the blocks exactly as compiled
// are skipped without a candidate record — there is nothing to decide.
func (e *layoutEngine) Propose(c *cobra.Control, agg cobra.Window) []cobra.Proposal {
	var out []cobra.Proposal
	for _, ls := range c.Profiler().HotLoops(c.Config().MinLoopSamples) {
		k := ls.Key
		if !c.Eligible(k) {
			continue
		}
		if c.Region(k).Deployment != nil {
			out = append(out, cobra.Proposal{Key: k})
			continue
		}
		spec := c.Analyzer().BuildLayout(c.Analyzer().RegionFor(k), e.edges)
		// A loop head placed after its latch would turn the latch edge
		// forward and the copy's loop key would vanish from the profiler:
		// the deployment would be unjudgeable.
		if len(spec.Blocks) < 2 || spec.Identity() || !spec.PlacesBefore(k.Head, k.BranchPC) {
			continue
		}
		out = append(out, cobra.Proposal{Key: k, Reason: "trigger",
			Specs: []cobra.VariantSpec{{Rewrite: cobra.RewriteLayout, Layout: &spec}},
			Evidence: obs.Evidence{
				Blocks: len(spec.Blocks), HotBlocks: spec.Hot, HotCoverage: spec.Coverage,
			}})
	}
	return out
}

// OnRegress restores the original entry word: with one resident copy
// there is nothing to switch to. The copy stays resident, and a later
// phase re-engages it with a single dispatch flip.
func (e *layoutEngine) OnRegress(*cobra.Control, *cobra.RegionState) cobra.Regression {
	return cobra.Regression{To: -1, Reason: "layout_regressed"}
}

// Decorate annotates the evidence with the deployed block layout.
func (e *layoutEngine) Decorate(_ cobra.LoopKey, st *cobra.RegionState, ev *obs.Evidence) {
	spec := st.Deployment.Variants[0].Layout
	ev.Variant = "layout"
	ev.Variants = len(st.Deployment.Variants)
	ev.Blocks = len(spec.Blocks)
	ev.HotBlocks = spec.Hot
	ev.HotCoverage = spec.Coverage
}
