package sched_test

import (
	"context"
	"testing"

	"repro/internal/cobra"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkPoolLedgerHit is one ledger hit as cobrad serves a repeated
// spec: a keyed job whose workload.Measurement the pool's ledger already
// holds, submitted to a long-lived pool and waited for.
func BenchmarkPoolLedgerHit(b *testing.B) {
	led, err := sched.OpenLedger(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := sched.NewPool[workload.Measurement](sched.Options{Workers: 1, Ledger: led}, 1)
	defer p.Shutdown(context.Background())
	m := workload.Measurement{
		Name: "daxpy", Threads: 4, Cycles: 1_110_487,
		Mem: mem.CPUStats{
			Loads: 262_144, Stores: 131_072, Prefetches: 16_384, L1Hits: 180_000,
			L2Hits: 150_000, L2Misses: 60_000, L3Hits: 40_000, L3Misses: 20_000,
			BusMemory: 24_000, BusRdHitm: 3_000, CoherentMisses: 4_000,
			DemandLatencyTotal: 9_000_000, DemandAccesses: 393_216,
		},
		Cobra: cobra.Stats{SamplesSeen: 960, OptimizerPasses: 53, Triggers: 6, PatchesApplied: 6, PrefetchesNopped: 110},
	}
	job := sched.Job[workload.Measurement]{
		Key:  sched.KeyOf("bench-ledger-hit"),
		Name: "hit",
		Run:  func(context.Context) (workload.Measurement, error) { return m, nil },
	}
	done := make(chan sched.Result[workload.Measurement], 1)
	resolve := func() sched.Result[workload.Measurement] {
		if err := p.Submit(context.Background(), job, func(r sched.Result[workload.Measurement]) { done <- r }); err != nil {
			b.Fatal(err)
		}
		return <-done
	}
	if r := resolve(); r.Err != nil || r.Cached {
		b.Fatalf("recording run = %+v, want an execution", r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := resolve(); !r.Cached || r.Value != m {
			b.Fatalf("repeat = %+v, want the recorded value, cached", r)
		}
	}
}
