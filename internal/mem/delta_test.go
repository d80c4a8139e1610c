package mem

import "testing"

// TestEventDeltasMatchStats drives a mixed, coherence-heavy access pattern
// through a domain and checks that summing the per-access EventDelta
// reports reproduces exactly the PMU-fed fields of the aggregate CPUStats.
// This is the contract the delta-based hot path rests on: the machine feeds
// the PMU from AccessResult.Ev instead of diffing CPUStats snapshots, so
// the two views must never drift.
func TestEventDeltasMatchStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"smp4", Itanium2SMP(4)},
		{"altix8", AltixNUMA(8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MemBytes = 16 << 20
			mm := NewMemory(cfg.MemBytes, cfg.PageSize)
			d, err := NewDomain(cfg, mm)
			if err != nil {
				t.Fatal(err)
			}

			base, err := mm.Alloc("a", 1<<20, 128)
			if err != nil {
				t.Fatal(err)
			}
			kinds := []AccessKind{LoadInt, Store, LoadBias, PrefShrd, PrefExcl}
			var sum [8]int64 // per-field EventDelta totals, all CPUs
			ncpu := cfg.NumCPUs

			// Deterministic LCG over a small window so lines bounce between
			// CPUs: upgrades, HITM transfers, writebacks and plain memory
			// fills all occur.
			state := uint64(12345)
			now := int64(0)
			for i := 0; i < 20000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				cpu := int(state>>33) % ncpu
				addr := base + (state>>17)%(64<<10)
				kind := kinds[(state>>7)%uint64(len(kinds))]
				now += 3
				res := access(d, cpu, addr, kind, now)
				sum[0] += int64(res.Ev.L2Miss)
				sum[1] += int64(res.Ev.L3Miss)
				sum[2] += int64(res.Ev.Writebacks)
				sum[3] += int64(res.Ev.BusMemory)
				sum[4] += int64(res.Ev.BusRdHit)
				sum[5] += int64(res.Ev.BusRdHitm)
				sum[6] += int64(res.Ev.BusRdInvalAllHitm)
			}

			tot := d.TotalStats()
			got := [8]int64{tot.L2Misses, tot.L3Misses, tot.Writebacks,
				tot.BusMemory, tot.BusRdHit, tot.BusRdHitm, tot.BusRdInvalAllHitm}
			names := []string{"L2Misses", "L3Misses", "Writebacks",
				"BusMemory", "BusRdHit", "BusRdHitm", "BusRdInvalAllHitm"}
			for i, name := range names {
				if sum[i] != got[i] {
					t.Errorf("%s: sum of deltas = %d, stats = %d", name, sum[i], got[i])
				}
			}
			if sum[0] == 0 || sum[3] == 0 {
				t.Fatal("pattern generated no misses/bus traffic: test is vacuous")
			}
			if tc.name == "smp4" && sum[5]+sum[6] == 0 {
				t.Fatal("pattern generated no HITM snoops: coherence paths untested")
			}
		})
	}
}
