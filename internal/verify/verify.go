package verify

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// Options shapes one fuzz corpus run.
type Options struct {
	// Seed is the first seed; the corpus is [Seed, Seed+Count).
	Seed  int64
	Count int
	// Threads per generated program (worker threads = CPUs).
	Threads int
	// Jobs is the scheduler worker count (<=0: GOMAXPROCS).
	Jobs int
	// Modes are the differential patch modes each seed runs (nil: all).
	Modes []Mode
	// FaultEvery runs the control-loop fault-injection battery on every
	// n-th seed (0 disables; 1 = every seed). Faults cost three extra
	// full runs per seed, so smoke corpora sample them.
	FaultEvery int
	// Hooks receive per-seed scheduler progress events.
	Hooks sched.Hooks
}

// Summary aggregates a corpus run.
type Summary struct {
	Programs int
	Runs     int   // total program executions (baseline + modes + faults)
	Cycles   int64 // total simulated cycles across all runs
	Checks   int64 // online MESI invariant checks that ran
	Failures []SeedReport
}

// Failed reports whether any seed failed verification.
func (s *Summary) Failed() bool { return len(s.Failures) > 0 }

// String renders the one-line verdict.
func (s *Summary) String() string {
	if s.Failed() {
		return fmt.Sprintf("verify: %d/%d programs FAILED (%d runs, %d invariant checks)",
			len(s.Failures), s.Programs, s.Runs, s.Checks)
	}
	return fmt.Sprintf("verify: %d programs ok (%d runs, %dM cycles, %d invariant checks)",
		s.Programs, s.Runs, s.Cycles/1_000_000, s.Checks)
}

// RunCorpus verifies Count seeded programs on the experiment scheduler's
// worker pool. Each seed is one job: generate, run the differential
// battery, optionally fault-inject. Results come back in input order, so
// the summary — and any failure list — is deterministic regardless of
// worker interleaving.
func RunCorpus(opt Options) Summary {
	if opt.Count <= 0 {
		opt.Count = 1
	}
	if opt.Threads <= 0 {
		opt.Threads = DefaultGenConfig(0).Threads
	}
	modes := opt.Modes
	if len(modes) == 0 {
		modes = AllModes()
	}

	jobs := make([]sched.Job[SeedReport], 0, opt.Count)
	for i := 0; i < opt.Count; i++ {
		seed := opt.Seed + int64(i)
		cfg := DefaultGenConfig(seed)
		cfg.Threads = opt.Threads
		var faults []FaultKind
		if opt.FaultEvery > 0 && i%opt.FaultEvery == 0 {
			faults = AllFaults()
		}
		jobs = append(jobs, sched.Job[SeedReport]{
			Name: fmt.Sprintf("seed%06d", seed),
			Run: func(context.Context) (SeedReport, error) {
				return VerifySeed(cfg, modes, faults), nil
			},
		})
	}

	results := sched.Run(jobs, sched.Options{Workers: opt.Jobs, Hooks: opt.Hooks})
	sum := Summary{Programs: opt.Count}
	for i := range results {
		rep := results[i].Value
		sum.Runs += 1 + len(rep.Modes) + len(rep.Faults)
		sum.Cycles += rep.BaselineCycles
		for _, m := range rep.Modes {
			sum.Cycles += m.Cycles
		}
		for _, f := range rep.Faults {
			sum.Cycles += f.Cycles
		}
		sum.Checks += rep.InvariantChecks
		if rep.Failed() {
			sum.Failures = append(sum.Failures, rep)
		}
	}
	return sum
}
