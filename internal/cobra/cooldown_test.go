package cobra

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/obs"
)

// buildLfetchLoop assembles a minimal patchable loop — an lfetch followed
// by a counted backward branch — and returns the image, its region, and
// the lfetch slot.
func buildLfetchLoop(t *testing.T) (*ia64.Image, Region, int) {
	t.Helper()
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "loop")
	a.Label("top")
	lf := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 4, Hint: ia64.HintNT1})
	a.Nop()
	br := a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	key := LoopKey{Head: entry, BranchPC: entry + br}
	r := Region{Key: key, Start: entry, End: entry + br, FuncName: "loop"}
	return img, r, entry + lf
}

// TestCooldownUntilMatchesEarliestRedeploy pins the window-vs-cycle
// contract of the rollback cooldown: the CooldownUntil evidence recorded
// with a rolled_back decision must equal the cycle of the earliest
// optimizer pass at which the region's cooldown has expired. Before the
// fix, the per-pass decrement ran after the judgement in the same pass
// that set the cooldown, so the region became deployable one full
// OptimizeInterval before the cycle the decision log advertised.
func TestCooldownUntilMatchesEarliestRedeploy(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)

	cfg := DefaultConfig(StrategyAdaptive)
	cfg.MinLoopSamples = 0 // every window counts as loop-active

	o := obs.New(obs.Config{Decisions: true})
	r := &Runtime{
		cfg:     cfg,
		patcher: NewPatcher(img, false),
		prof:    NewProfiler(cfg.CoherentLatency),
		regions: map[LoopKey]*RegionState{},
		stats:   newStatCounters(obs.NewRegistry()),
		obs:     o,
		engine:  prefetchEngine{},
	}

	patch, err := deployOne(r.patcher, region, []int{lfetchSlot}, RewriteNop)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// An absurd baseline guarantees the judgement regresses: the synthetic
	// windows retire nothing, so activeAgg.IPC() is 0.
	r.regions[region.Key] = &RegionState{Deployment: patch, Rewrite: RewriteNop, Baseline: 10}
	// The patch bypassed the lifecycle's deploy path; record its prefix
	// so the replayed state machine starts from a legal deployed state.
	o.Decisions().Record(0, uint64(region.Key.Head), 0, obs.StateCandidate, "test", obs.Evidence{})
	o.Decisions().Record(0, uint64(region.Key.Head), 0, obs.StateDeployed, "test", obs.Evidence{})

	interval := cfg.OptimizeInterval
	var rolledBackAt, cooldownUntil int64
	var clearedAt int64
	for pass := int64(1); pass <= 8; pass++ {
		now := pass * interval
		r.optimizePass(now)
		st := r.regions[region.Key]
		if rolledBackAt == 0 {
			for _, d := range o.Decisions().Decisions() {
				if d.To == obs.StateRolledBack {
					rolledBackAt = d.Cycle
					cooldownUntil = d.Evidence.CooldownUntil
				}
			}
			if rolledBackAt != 0 && st.Cooldown == 0 {
				t.Fatalf("cooldown already expired in the pass that set it (cycle %d)", now)
			}
			continue
		}
		// After the pass's decrement, cooldown==0 means the lifecycle
		// would have accepted the region this pass.
		if st.Cooldown == 0 {
			clearedAt = now
			break
		}
	}
	if rolledBackAt == 0 {
		t.Fatal("patch was never rolled back")
	}
	if cooldownUntil <= rolledBackAt {
		t.Fatalf("CooldownUntil %d not after rollback cycle %d", cooldownUntil, rolledBackAt)
	}
	if clearedAt == 0 {
		t.Fatal("cooldown never expired")
	}
	if clearedAt != cooldownUntil {
		t.Fatalf("region deployable at cycle %d, decision log promised CooldownUntil %d",
			clearedAt, cooldownUntil)
	}
	if v := o.Decisions().Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations: %v", v)
	}
}
