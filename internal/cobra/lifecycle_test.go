package cobra

import (
	"testing"

	"repro/internal/obs"
)

// stubEngine proposes a fixed list and restores on regression.
type stubEngine struct{ props []Proposal }

func (e stubEngine) Propose(*Runtime, Window) []Proposal { return e.props }
func (stubEngine) OnRegress(*Runtime, *RegionState) Regression {
	return Regression{To: -1, Reason: "regressed"}
}
func (stubEngine) Decorate(LoopKey, *RegionState, *obs.Evidence) {}

// TestOneLifecyclePerLoopHead: two backward branches can close loops on
// one head, and the decision log is keyed by head. While one key is live
// or blocked the other must stay out of the lifecycle — even when both
// are proposed in the same pass — or the log records an illegal
// deployed → candidate and two overlapping regions deploy at once.
func TestOneLifecyclePerLoopHead(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	a := region.Key
	b := LoopKey{Head: a.Head, BranchPC: a.BranchPC - 1}
	spec := []VariantSpec{{Rewrite: RewriteNop, Slots: []int{lfetchSlot}}}
	o := obs.New(obs.Config{Decisions: true})
	r := &Runtime{
		cfg:      DefaultConfig(StrategyAdaptive),
		patcher:  NewPatcher(img, false),
		analyzer: NewAnalyzer(img, nil),
		regions:  map[LoopKey]*RegionState{},
		obs:      o,
		engine: stubEngine{props: []Proposal{
			{Key: a, Reason: "trigger", Specs: spec},
			{Key: b, Reason: "trigger", Specs: spec},
		}},
	}
	if !r.eligible(a) || !r.eligible(b) {
		t.Fatal("fresh keys on one head must both be eligible")
	}

	r.propose(Window{}, 100)
	if !r.region(a).Live() || r.region(b).Live() {
		t.Fatalf("live after one pass: a=%v b=%v, want only a", r.region(a).Live(), r.region(b).Live())
	}
	if r.eligible(b) {
		t.Fatal("second key admitted while the head is live")
	}
	if got := len(o.Decisions().Decisions()); got != 2 {
		t.Fatalf("%d decisions, want candidate + deployed for the one admitted key", got)
	}
	if v := o.Decisions().Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations: %v", v)
	}

	// Restored, the head is free again; blocked, it is not.
	if err := r.patcher.Switch(r.region(a).Deployment, -1); err != nil {
		t.Fatal(err)
	}
	if !r.eligible(b) {
		t.Fatal("second key still excluded after the head was restored")
	}
	r.region(a).Blocked = true
	if r.eligible(b) {
		t.Fatal("second key admitted while the head is blocked")
	}
}
