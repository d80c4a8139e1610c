package cobra_test

import (
	"testing"

	"repro/internal/cobra"
	"repro/internal/ia64"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/openmp"
)

// buildBranchyKernel assembles the smallest workload whose optimal block
// placement differs from address order: a per-thread countdown loop with
// a data-dependent skip taken 7 of 8 iterations, plus a false-sharing
// store (all four tids hit one cache line) so the coherent-pressure
// trigger fires. Binder convention: r2 = shared line base, r4 = tid*8.
//
//	entry:  add  r21 = r2 + r4          (pre block)
//	        movi r20 = reps
//	        movi r19 = 7
//	head:   st8  [r21] = r20            ; false sharing -> coherent events
//	        ld8  r22 = [r21]
//	        and  r18 = r20 & r19
//	        cmp  p4,p5 = r18 != 0
//	   (p4) br.cond hot                 ; hot path skips cold
//	cold:   addi r23 += 1               ; 1 of 8 iterations
//	hot:    addi r20 -= 1
//	        cmp  p6,p7 = r20 > 0
//	   (p6) br.cond head                ; latch
//	        halt
func buildBranchyKernel(img *ia64.Image, reps int64) (ia64.Func, error) {
	a := ia64.NewAsm(img, "branchy")
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 21, R2: 2, R3: 4})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 20, Imm: reps})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 19, Imm: 7})
	a.Label("head")
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 21, R3: 20})
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 22, R2: 21})
	a.Emit(ia64.Instr{Op: ia64.OpAnd, R1: 18, R2: 20, R3: 19})
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, P1: 4, P2: 5, R2: 18, Rel: ia64.CmpNE})
	a.Br(ia64.BrCond, 4, "hot")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 23, R2: 23, Imm: 1})
	a.Label("hot")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 20, R2: 20, Imm: -1})
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, P1: 6, P2: 7, R2: 20, Rel: ia64.CmpGT})
	a.Br(ia64.BrCond, 6, "head")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	if _, err := a.Close(); err != nil {
		return ia64.Func{}, err
	}
	fn, _ := img.LookupFunc("branchy")
	return fn, nil
}

// layoutSmokeConfig floors the control thresholds (the verify fault
// harness's settings) so the adaptive trigger fires within a short run,
// with the trace cache on (layout needs somewhere to emit).
func layoutSmokeConfig() cobra.Config {
	cfg := cobra.DefaultConfig(cobra.StrategyLayout)
	cfg.UseTraceCache = true
	cfg.OptimizeInterval = 1_000
	cfg.MinCoherentEvents = 1
	cfg.CoherentShareThreshold = 0.01
	cfg.CoherentLatency = 100
	cfg.MinLoopSamples = 1
	cfg.MinDelinquentSamples = 1
	cfg.Sampling.CyclePeriod = 400
	cfg.Sampling.DEARMinLatency = 50
	cfg.Obs = obs.New(obs.Config{Decisions: true})
	return cfg
}

// launchBranchy builds the full stack (machine, openmp, cobra under cfg)
// and launches the kernel `launches` times — dispatch into
// a deployed copy happens at the region entry, so the reordered code only
// runs when the kernel is re-entered, exactly like a workload calling its
// parallel region once per repetition.
func launchBranchy(t *testing.T, reps int64, launches int, cfg cobra.Config) (cobra.Config, *cobra.Runtime, *machine.Machine, uint64) {
	t.Helper()
	const threads = 4
	img := ia64.NewImage()
	fn, err := buildBranchyKernel(img, reps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.DefaultConfig(threads), img)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Memory().Alloc("shared.line", 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := openmp.NewRuntime(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	cb := cobra.New(m, cfg)
	rt.OnFork = func(tid, cpu int) { cb.MonitorThread(tid, cpu) }
	for i := 0; i < launches; i++ {
		err := rt.ParallelFor(fn, int64(threads), func(tid int, rf *ia64.RegFile) {
			rf.SetGR(2, int64(base))
			rf.SetGR(4, int64(tid*8))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cfg, cb, m, base
}

// TestLayoutDeploysOnBranchyKernel is the layout engine's smoke run: the
// full runtime (monitoring threads, USB drain, trigger, engine) on the
// branchy kernel must deploy at least one reordered copy with block
// evidence attached, keep the decision lifecycle legal, pass self-check,
// and preserve the kernel's architectural result.
func TestLayoutDeploysOnBranchyKernel(t *testing.T) {
	cfg, cb, m, base := launchBranchy(t, 400, 60, layoutSmokeConfig())

	if got := cb.Stats().PatchesApplied; got == 0 {
		t.Fatal("layout engine never deployed on the branchy kernel")
	}
	dl := cfg.Obs.Decisions()
	if v := dl.Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations: %v", v)
	}
	var sawDeploy bool
	for _, d := range dl.Decisions() {
		if d.To != obs.StateDeployed {
			continue
		}
		sawDeploy = true
		if d.Evidence.Variant != "layout" {
			t.Errorf("deploy evidence variant = %q, want layout", d.Evidence.Variant)
		}
		if d.Evidence.Blocks < 3 {
			t.Errorf("deploy evidence blocks = %d, want >= 3 (pre, loop, cold split)", d.Evidence.Blocks)
		}
		if d.Evidence.HotBlocks < 1 || d.Evidence.HotBlocks > d.Evidence.Blocks {
			t.Errorf("deploy evidence hot blocks = %d of %d", d.Evidence.HotBlocks, d.Evidence.Blocks)
		}
	}
	if !sawDeploy {
		t.Fatal("no deployed decision in the audit log")
	}

	// The reordered copy must not change what the kernel computes: the
	// last store in each thread's slot happens at r20 == 1.
	for tid := 0; tid < 4; tid++ {
		if got := m.Memory().ReadI64(base + uint64(tid*8)); got != 1 {
			t.Fatalf("tid %d slot = %d, want 1 (layout changed kernel semantics)", tid, got)
		}
	}
}

// TestLayoutJudgesAndKeepsDispatchStable drives the resident-copy
// lifecycle across many kernel launches: the deployed copy must actually
// be judged (the relocated loop key observed through the BTB), and
// however many judgement rounds and dispatch flips the run produced, the
// code cache must hold exactly one layout copy — re-engagement is a
// dispatch switch, never a redeploy.
func TestLayoutJudgesAndKeepsDispatchStable(t *testing.T) {
	cfg, cb, m, _ := launchBranchy(t, 400, 120, layoutSmokeConfig())
	img := m.Image()

	layouts := 0
	for _, f := range img.Funcs() {
		if len(f.Name) >= 12 && f.Name[:12] == "cobra.layout" {
			layouts++
		}
	}
	if cb.Stats().PatchesApplied > 0 && layouts != 1 {
		t.Fatalf("%d layout copies in the code cache, want 1 resident copy", layouts)
	}
	// Judgement must have concluded at least once (kept or rolled back).
	var judged bool
	for _, d := range cfg.Obs.Decisions().Decisions() {
		if d.To == obs.StateKept || d.To == obs.StateRolledBack {
			judged = true
		}
	}
	if cb.Stats().PatchesApplied > 0 && !judged {
		t.Fatal("deployed layout was never judged")
	}
	if v := cfg.Obs.Decisions().Violations(); len(v) != 0 {
		t.Fatalf("lifecycle violations: %v", v)
	}
}
