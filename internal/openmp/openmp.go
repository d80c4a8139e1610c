// Package openmp is a fork-join parallel runtime for the simulated
// machine, mirroring the icc OpenMP runtime the paper's benchmarks use:
// a parallel-for distributes the iteration space across worker threads by
// static partitioning on the loop index — "regardless of data locations",
// which is exactly the property that creates the coherent memory accesses
// COBRA optimizes — with each thread bound to a fixed CPU and a join
// barrier at region end.
package openmp

import (
	"fmt"

	"repro/internal/ia64"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Binder prepares a worker thread's registers for an outlined region:
// array bases are baked into the code by the compiler, so binders set only
// scalar arguments. tid is the OpenMP thread number.
type Binder func(tid int, rf *ia64.RegFile)

// Convention: outlined parallel regions receive their iteration range in
// r8 (lo, inclusive) and r9 (hi, exclusive), and the thread id in r10.
const (
	RegLo  = 8
	RegHi  = 9
	RegTID = 10
)

// RegionStat records one executed region for reporting.
type RegionStat struct {
	Name     string
	Parallel bool
	Threads  int
	Cycles   int64 // barrier-to-barrier duration
	Retired  int64
}

// Runtime is the OpenMP runtime bound to one machine. Each executed
// region records one cycle-domain span on the regions track of the
// machine's observer, if it traces.
type Runtime struct {
	m        *machine.Machine
	nthreads int
	stats    []RegionStat

	// OnFork, if set, is called once per worker thread at its first use —
	// the hook COBRA uses to create a monitoring thread per working
	// thread (paper §3: "A monitoring thread is created when a working
	// thread is forked").
	OnFork func(tid, cpu int)

	forked []bool

	// affinity maps thread id -> CPU id (nil = identity, the historical
	// binding). Set through SetAffinity before the first region runs.
	affinity []int
}

// NewRuntime creates a runtime running nthreads worker threads, thread i
// bound to CPU i (override with SetAffinity).
func NewRuntime(m *machine.Machine, nthreads int) (*Runtime, error) {
	if nthreads <= 0 || nthreads > m.NumCPUs() {
		return nil, fmt.Errorf("openmp: %d threads on %d CPUs", nthreads, m.NumCPUs())
	}
	return &Runtime{m: m, nthreads: nthreads, forked: make([]bool, nthreads)}, nil
}

// SetAffinity pins thread i to CPU aff[i] instead of the identity
// binding — the declarative thread-placement knob of the scenario matrix
// (e.g. packing all threads onto one NUMA node, or spreading them across
// nodes of an asymmetric shape). Must be a permutation-free injective
// map: one CPU per thread, no CPU shared. Call before any region runs;
// rebinding mid-program would tear a thread away from its warmed caches
// without modelling the move (use machine.Config.Migrations for that).
func (rt *Runtime) SetAffinity(aff []int) error {
	if len(aff) != rt.nthreads {
		return fmt.Errorf("openmp: affinity names %d CPUs for %d threads", len(aff), rt.nthreads)
	}
	seen := make(map[int]bool, len(aff))
	for t, cpu := range aff {
		if cpu < 0 || cpu >= rt.m.NumCPUs() {
			return fmt.Errorf("openmp: affinity[%d] = CPU %d of %d", t, cpu, rt.m.NumCPUs())
		}
		if seen[cpu] {
			return fmt.Errorf("openmp: affinity binds CPU %d twice", cpu)
		}
		seen[cpu] = true
	}
	rt.affinity = append([]int(nil), aff...)
	return nil
}

// cpuOf returns the CPU thread tid is bound to.
func (rt *Runtime) cpuOf(tid int) int {
	if rt.affinity == nil {
		return tid
	}
	return rt.affinity[tid]
}

// Machine returns the underlying machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.m }

// Stats returns one RegionStat per executed region, in execution order
// (an event log, not an aggregate counter snapshot — repeated regions
// appear once per execution).
func (rt *Runtime) Stats() []RegionStat { return rt.stats }

// TotalCycles sums all region durations (the program's wall-clock time).
func (rt *Runtime) TotalCycles() int64 {
	var t int64
	for _, s := range rt.stats {
		t += s.Cycles
	}
	return t
}

func (rt *Runtime) fork(tid int) {
	if !rt.forked[tid] {
		rt.forked[tid] = true
		if rt.OnFork != nil {
			rt.OnFork(tid, rt.cpuOf(tid))
		}
	}
}

// ParallelFor runs fn over the iteration space [0, trip) on all worker
// threads with a static schedule: thread t receives the contiguous chunk
// [t*ceil(trip/n), min(trip, (t+1)*ceil(trip/n))). It blocks until the
// join barrier completes.
func (rt *Runtime) ParallelFor(fn ia64.Func, trip int64, bind Binder) error {
	start := rt.m.GlobalCycle()
	rt.m.SyncClocks(start)

	chunk := (trip + int64(rt.nthreads) - 1) / int64(rt.nthreads)
	var active []int
	for t := 0; t < rt.nthreads; t++ {
		lo := int64(t) * chunk
		hi := lo + chunk
		if hi > trip {
			hi = trip
		}
		if lo >= hi {
			continue
		}
		rt.fork(t)
		t := t
		cpu := rt.cpuOf(t)
		rt.m.StartThread(cpu, fn.Entry, t, func(rf *ia64.RegFile) {
			rf.SetGR(RegLo, lo)
			rf.SetGR(RegHi, hi)
			rf.SetGR(RegTID, int64(t))
			if bind != nil {
				bind(t, rf)
			}
		})
		active = append(active, cpu)
	}
	retired, err := rt.m.RunAll(active)
	if err != nil {
		return fmt.Errorf("openmp: region %s: %w", fn.Name, err)
	}
	end := rt.m.GlobalCycle()
	rt.m.SyncClocks(end) // join barrier
	rt.stats = append(rt.stats, RegionStat{
		Name: fn.Name, Parallel: true, Threads: len(active),
		Cycles: end - start, Retired: retired,
	})
	if t := rt.m.Observer().Trace(); t != nil {
		t.Span("region", fn.Name, obs.TIDRegions, start, end, map[string]any{
			"threads": len(active), "retired": retired, "parallel": true,
		})
	}
	return nil
}

// Serial runs fn to completion on CPU 0 (the master thread).
func (rt *Runtime) Serial(fn ia64.Func, bind Binder) error {
	start := rt.m.GlobalCycle()
	rt.m.SyncClocks(start)
	rt.fork(0)
	master := rt.cpuOf(0)
	rt.m.StartThread(master, fn.Entry, 0, func(rf *ia64.RegFile) {
		rf.SetGR(RegTID, 0)
		if bind != nil {
			bind(0, rf)
		}
	})
	retired, err := rt.m.Run(master)
	if err != nil {
		return fmt.Errorf("openmp: serial %s: %w", fn.Name, err)
	}
	end := rt.m.GlobalCycle()
	rt.m.SyncClocks(end)
	rt.stats = append(rt.stats, RegionStat{
		Name: fn.Name, Parallel: false, Threads: 1,
		Cycles: end - start, Retired: retired,
	})
	if t := rt.m.Observer().Trace(); t != nil {
		t.Span("region", fn.Name, obs.TIDRegions, start, end, map[string]any{
			"threads": 1, "retired": retired, "parallel": false,
		})
	}
	return nil
}
