package verify

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cobra"
	"repro/internal/ia64"
)

// TestGenerateDeterministic pins the generator's contract: the same
// config yields the bit-identical instruction stream and metadata. The
// differential oracle is meaningless without this — two runs of "the same
// program" must really be the same program.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, err := Generate(DefaultGenConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(DefaultGenConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Img.Len() != b.Img.Len() {
			t.Fatalf("seed %d: image lengths differ: %d vs %d", seed, a.Img.Len(), b.Img.Len())
		}
		for pc := 0; pc < a.Img.Len(); pc++ {
			if a.Img.Fetch(pc) != b.Img.Fetch(pc) {
				t.Fatalf("seed %d: slot %d differs: %+v vs %+v", seed, pc, a.Img.Fetch(pc), b.Img.Fetch(pc))
			}
		}
		if !reflect.DeepEqual(a.Loops, b.Loops) || !reflect.DeepEqual(a.Lfetches, b.Lfetches) {
			t.Fatalf("seed %d: metadata differs", seed)
		}
		if len(a.Lfetches) == 0 {
			t.Fatalf("seed %d: no lfetch sites generated", seed)
		}
		if len(a.PatchTarget().Lfetches) == 0 {
			t.Fatalf("seed %d: patch target has no prefetches", seed)
		}
	}
}

// TestDifferentialBatteryBitIdentical is the oracle's core property over
// a handful of seeds: every live-patch mode deploys mid-run and leaves
// the architectural state bit-identical to the unpatched baseline, with
// the online MESI checker active and clean throughout.
func TestDifferentialBatteryBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rep := VerifySeed(DefaultGenConfig(seed), AllModes(), nil)
		if rep.Failed() {
			t.Errorf("seed %d failed:\n  %v", seed, rep.Problems())
		}
		if rep.Retired == 0 {
			t.Errorf("seed %d retired no instructions", seed)
		}
	}
}

// TestParseModeRoundTrip pins the -modes flag contract: every mode's
// String parses back to itself, including the variant-dispatch modes.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range AllModes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestTriagePatchErr: the patcher's typed sentinels downgrade a deploy
// failure to "never deployed" while anything else stays fatal.
func TestTriagePatchErr(t *testing.T) {
	if err := triagePatchErr(fmt.Errorf("deploy: %w", cobra.ErrNoRewritableSlots)); err != nil {
		t.Errorf("ErrNoRewritableSlots not triaged: %v", err)
	}
	if err := triagePatchErr(fmt.Errorf("deploy: %w", cobra.ErrAlreadyPatched)); err != nil {
		t.Errorf("ErrAlreadyPatched not triaged: %v", err)
	}
	if err := triagePatchErr(nil); err != nil {
		t.Errorf("nil error mangled: %v", err)
	}
	if triagePatchErr(errors.New("image corrupt")) == nil {
		t.Error("unexpected error class swallowed")
	}
}

// TestVariantModesDeployAndDiffClean exercises the variant-dispatch
// battery directly: the resident table deploys mid-run, the dispatch
// flips variants mid-phase (and back for the rollback mode), and the
// architectural state stays bit-identical to the baseline.
func TestVariantModesDeployAndDiffClean(t *testing.T) {
	rep := VerifySeed(DefaultGenConfig(7), []Mode{ModeVariantSwitch, ModeVariantRollback}, nil)
	if rep.Failed() {
		t.Fatalf("variant battery failed:\n  %v", rep.Problems())
	}
	if len(rep.Modes) != 2 {
		t.Fatalf("got %d mode results, want 2", len(rep.Modes))
	}
	for _, m := range rep.Modes {
		if !m.Deployed {
			t.Errorf("%s: variant table never deployed", m.Mode)
		}
	}
}

// TestOracleDetectsSemanticCorruption proves the differential oracle can
// actually fail: removing the kernel's stores (a rewrite that is NOT
// semantics-neutral) must produce architectural mismatches. A run where
// no seed trips the oracle would mean the comparison is vacuous.
func TestOracleDetectsSemanticCorruption(t *testing.T) {
	detected := false
	for seed := int64(1); seed <= 10 && !detected; seed++ {
		p, err := Generate(DefaultGenConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		base, err := runProgram(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		env, err := setupRun(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores := 0
		for pc := p.Kernel.Entry; pc < p.Kernel.End; pc++ {
			if in := env.img.Fetch(pc); in.IsStore() {
				if _, err := env.img.Patch(pc, ia64.Instr{Op: ia64.OpNop, QP: in.QP}); err != nil {
					t.Fatal(err)
				}
				stores++
			}
		}
		if stores == 0 {
			continue
		}
		if err := env.run(p); err != nil {
			t.Fatal(err)
		}
		if diff := diffStates(base.state, snapshotState(env.m), diffLimit); len(diff) > 0 {
			detected = true
		}
	}
	if !detected {
		t.Fatal("oracle never detected deliberately corrupted semantics across 10 seeds")
	}
}

// TestFaultInjectionDegradesGracefully runs the control-loop fault
// battery: perturbed sample paths must terminate cleanly, keep the
// decision-log lifecycle legal, leave MESI invariants intact, deploy
// nothing when starved of evidence, and never change the program's
// architectural result.
func TestFaultInjectionDegradesGracefully(t *testing.T) {
	healthyDeploys := int64(0)
	for seed := int64(2); seed <= 4; seed++ {
		p, err := Generate(DefaultGenConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		base, err := runProgram(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range AllFaults() {
			res := RunFault(p, base.state, kind)
			if res.Failed() {
				t.Errorf("seed %d %v:\n  %v", seed, kind, res.Problems())
			}
			if kind == FaultNone {
				healthyDeploys += res.Patches
			}
		}
	}
	// The healthy-path control must actually patch somewhere, or the
	// starved faults' no-patch assertions assert nothing.
	if healthyDeploys == 0 {
		t.Fatal("healthy control loop never deployed a patch on any seed")
	}
}

// TestRunCorpusSmoke drives the scheduler fan-out end to end: a small
// corpus with fault injection on every third seed, on multiple workers.
func TestRunCorpusSmoke(t *testing.T) {
	sum := RunCorpus(Options{Seed: 1, Count: 6, Jobs: 4, FaultEvery: 3})
	if sum.Failed() {
		for _, f := range sum.Failures {
			t.Errorf("seed %d:\n  %v", f.Seed, f.Problems())
		}
	}
	if sum.Programs != 6 {
		t.Fatalf("programs = %d, want 6", sum.Programs)
	}
	// placement is one mode but runs once per placement policy.
	wantRuns := 6*(1+len(AllModes())+3-1) + 2*len(AllFaults())
	if sum.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d", sum.Runs, wantRuns)
	}
	if sum.Checks == 0 {
		t.Fatal("no invariant checks ran")
	}
}
