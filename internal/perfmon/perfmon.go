// Package perfmon models the perfmon sampling kernel driver of the paper
// (§3): it programs each CPU's PMU for overflow-driven sampling, and on
// every overflow captures a sample record — PC, thread and CPU ids, the
// four performance counters, the eight BTB addresses (four branch/target
// pairs) and the latest DEAR capture — and hands it straight to the CPU's
// monitoring thread, which copies the record into its User Sampling
// Buffer. The paper's Kernel Sampling Buffer only carries the record
// across that hand-off, so the model keeps no copy of its own.
//
// The sampling interrupt plus copy costs simulated time: each delivered
// sample charges the sampled CPU a configurable overhead, so COBRA's
// monitoring cost is visible in the measured execution times, as it is on
// real hardware.
package perfmon

import (
	"fmt"

	"repro/internal/hpm"
	"repro/internal/obs"
)

// Sample is one sampling-driver record (paper §3.1: "Each sample consists
// of a sample index, PC address, process ID, thread ID, processor ID, four
// performance counters, eight BTB entries, data cache miss instruction
// address, miss latency, and miss data cache line address"). The model
// runs one process, so the record carries no process ID.
type Sample struct {
	Index    int64
	PC       int
	ThreadID int
	CPU      int
	Cycle    int64

	Counters [hpm.NumCounters]hpm.Counter
	BTB      []hpm.BranchPair
	DEAR     hpm.DEARSample
}

// Context is the view of the machine the driver needs: the architectural
// state it snapshots into samples, the clock it charges overhead to, and
// the machine's observer (nil when disabled). *machine.Machine satisfies
// it.
type Context interface {
	NumCPUs() int
	PMU(cpu int) *hpm.PMU
	SamplePC(cpu int) int
	SampleThreadID(cpu int) int
	SampleCycle(cpu int) int64
	ChargeCycles(cpu int, n int64)
	Observer() *obs.Observer
}

// Handler receives samples for one monitored CPU — COBRA attaches one
// monitoring thread per working thread here.
type Handler func(Sample)

// Config controls the sampling setup.
type Config struct {
	// CyclePeriod is the CPU_CYCLES overflow sampling period. Larger
	// periods lower overhead and profile resolution together (§3.1: BTB
	// profiles keep overhead low even at modest rates).
	CyclePeriod int64
	// DEARMinLatency is the DEAR latency filter in cycles.
	DEARMinLatency int64
	// SampleOverhead cycles charged to the CPU per delivered sample.
	SampleOverhead int64
}

// DefaultConfig returns the sampling configuration used by the COBRA
// runtime: cycle-based sampling with a DEAR filter just above the L3 hit
// latency (first-level filter of §4).
func DefaultConfig() Config {
	return Config{
		CyclePeriod:    20000,
		DEARMinLatency: 13, // drop loads satisfied by L3 hits (12 cycles)
		SampleOverhead: 200,
	}
}

// Driver is the sampling driver instance for one machine.
type Driver struct {
	cfg      Config
	ctx      Context
	handlers []Handler
	nextIdx  int64
	dropped  int64 // samples captured with no monitoring thread attached
}

// NewDriver initializes sampling on every CPU of ctx. The four counters
// are programmed as: 0=CPU_CYCLES (sampling), 1=L2_MISSES,
// 2=IA64_INST_RETIRED, 3=BUS_COHERENT_SNOOPS (RD_HITM +
// RD_INVAL_ALL_HITM via unit mask) — the mix COBRA's trigger and
// patch-evaluation metrics need simultaneously.
func NewDriver(cfg Config, ctx Context) *Driver {
	if cfg.CyclePeriod <= 0 {
		cfg.CyclePeriod = DefaultConfig().CyclePeriod
	}
	d := &Driver{cfg: cfg, ctx: ctx}
	d.handlers = make([]Handler, ctx.NumCPUs())
	for cpu := 0; cpu < ctx.NumCPUs(); cpu++ {
		pmu := ctx.PMU(cpu)
		pmu.Program(0, hpm.EvCPUCycles, cfg.CyclePeriod)
		pmu.Program(1, hpm.EvL2Misses, 0)
		pmu.Program(2, hpm.EvInstRetired, 0)
		pmu.Program(3, hpm.EvBusCoherent, 0)
		pmu.SetDEARFilter(cfg.DEARMinLatency)
		cpu := cpu
		pmu.SetOverflowHandler(func(slot int, ev hpm.Event) {
			if ev == hpm.EvCPUCycles {
				d.capture(cpu)
			}
		})
	}
	return d
}

// Attach registers the monitoring-thread handler for cpu (one monitoring
// thread per working thread, created when the working thread forks).
func (d *Driver) Attach(cpu int, h Handler) {
	d.handlers[cpu] = h
}

// capture snapshots the PMU state of cpu and delivers it to the
// monitoring thread; with none attached the sample is dropped. Either
// way the machine's observer is told of the capture.
func (d *Driver) capture(cpu int) {
	pmu := d.ctx.PMU(cpu)
	s := Sample{
		Index:    d.nextIdx,
		PC:       d.ctx.SamplePC(cpu),
		ThreadID: d.ctx.SampleThreadID(cpu),
		CPU:      cpu,
		Cycle:    d.ctx.SampleCycle(cpu),
		Counters: pmu.ReadAll(),
		BTB:      pmu.ReadBTB(),
		DEAR:     pmu.ReadDEAR(),
	}
	d.nextIdx++
	d.ctx.ChargeCycles(cpu, d.cfg.SampleOverhead)
	h := d.handlers[cpu]
	d.ctx.Observer().Sampled(cpu, s.Cycle, s.PC, s.ThreadID, h != nil)
	if h != nil {
		h(s)
	} else {
		d.dropped++
	}
}

// Dropped returns the number of samples captured on a CPU with no
// monitoring thread attached. Every OpenMP thread forks (and attaches its
// monitor) before it runs code, so a COBRA run drops none.
func (d *Driver) Dropped() int64 { return d.dropped }

// String describes the sampling setup.
func (d *Driver) String() string {
	return fmt.Sprintf("perfmon{period=%d dearMinLat=%d overhead=%d}",
		d.cfg.CyclePeriod, d.cfg.DEARMinLatency, d.cfg.SampleOverhead)
}
