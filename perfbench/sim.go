package main

import (
	"time"

	"repro/internal/cobra"
	"repro/internal/mem"
	"repro/internal/workload"
)

// simTotals sums the simulated counts of cells or sessions. Every field
// is deterministic for a given seed.
type simTotals struct {
	cycles  int64
	instr   int64 // 0 where instances are not reachable (npb-sweep)
	regions int64
	dropped int64
	mem     mem.CPUStats
	cobra   cobra.Stats
}

// add folds one measurement in.
func (t *simTotals) add(m workload.Measurement) {
	t.cycles += m.Cycles
	t.mem.Add(m.Mem)
	c := m.Cobra
	t.cobra.SamplesSeen += c.SamplesSeen
	t.cobra.OptimizerPasses += c.OptimizerPasses
	t.cobra.Triggers += c.Triggers
	t.cobra.PatchesApplied += c.PatchesApplied
	t.cobra.PatchesRolledBack += c.PatchesRolledBack
	t.cobra.VariantSwitches += c.VariantSwitches
}

// merge folds in another set of totals.
func (t *simTotals) merge(o simTotals) {
	t.add(workload.Measurement{Cycles: o.cycles, Mem: o.mem, Cobra: o.cobra})
	t.instr += o.instr
	t.regions += o.regions
	t.dropped += o.dropped
}

// addInstance folds in the counts only a live instance exposes:
// instructions retired, OpenMP regions and perfmon samples dropped.
func (t *simTotals) addInstance(inst *workload.Instance) {
	m := inst.Ctx.M
	for i := 0; i < m.NumCPUs(); i++ {
		t.instr += m.CPU(i).InstRetired
	}
	t.regions += int64(len(inst.Ctx.RT.Stats()))
	if inst.Cobra != nil {
		t.dropped += inst.Cobra.Driver().Dropped()
	}
}

// fill writes the per-layer metrics the totals determine.
func (t *simTotals) fill(layer map[string]float64) {
	layer["machine.instructions"] = float64(t.instr)
	layer["machine.sim_cycles"] = float64(t.cycles)
	layer["openmp.regions"] = float64(t.regions)
	layer["mem.accesses"] = float64(t.mem.Loads + t.mem.Stores)
	layer["mem.l3_misses"] = float64(t.mem.L3Misses)
	layer["mem.bus_transactions"] = float64(t.mem.BusMemory)
	layer["mem.hitm"] = float64(hitm(t.mem))
	layer["mem.coherent_ratio"] = ratio(float64(t.mem.CoherentMisses), float64(t.mem.L2Misses))
	layer["mem.writebacks"] = float64(t.mem.Writebacks)
	layer["perfmon.samples"] = float64(t.cobra.SamplesSeen)
	layer["perfmon.dropped"] = float64(t.dropped)
	layer["cobra.passes"] = float64(t.cobra.OptimizerPasses)
	layer["cobra.triggers"] = float64(t.cobra.Triggers)
	layer["cobra.patches"] = float64(t.cobra.PatchesApplied)
	layer["cobra.rollbacks"] = float64(t.cobra.PatchesRolledBack)
	layer["cobra.switches"] = float64(t.cobra.VariantSwitches)
	layer["cobra.kept_ratio"] = ratio(float64(t.cobra.PatchesApplied-t.cobra.PatchesRolledBack), float64(t.cobra.PatchesApplied))
}

// hitm counts the snoops that found a Modified line.
func hitm(s mem.CPUStats) int64 { return s.BusRdHitm + s.BusRdInvalAllHitm }

// hitmPerKAccess is HITM snoops per thousand demand accesses.
func hitmPerKAccess(s mem.CPUStats) float64 {
	return 1000 * ratio(float64(hitm(s)), float64(s.Loads+s.Stores))
}

// phaseTimes are the host times of one instance's workload hooks.
type phaseTimes struct{ setup, run, verify time.Duration }

// instrument wraps the instance's Setup, Run and Verify hooks so that
// Instance.Measure, called unchanged, times each one and records a span
// for it under parent.
func instrument(inst *workload.Instance, tr *tracer, req string, lane int, parent int64) *phaseTimes {
	pt := &phaseTimes{}
	wrap := func(name string, hook func(*workload.Ctx) error, d *time.Duration) func(*workload.Ctx) error {
		if hook == nil {
			return nil
		}
		return func(c *workload.Ctx) error {
			id := tr.begin(name, req, lane, parent)
			t0 := time.Now()
			err := hook(c)
			*d = time.Since(t0)
			tr.end(id)
			return err
		}
	}
	w := inst.W
	w.Setup = wrap("W.Setup", w.Setup, &pt.setup)
	w.Run = wrap("W.Run", w.Run, &pt.run)
	w.Verify = wrap("W.Verify", w.Verify, &pt.verify)
	return pt
}
