// Package workload defines runnable benchmark programs for the simulated
// machine: a program in loop-nest IR plus host-side setup and a phase
// driver, with a builder that assembles the full stack (machine, compiled
// binary, OpenMP runtime, and optionally an attached COBRA instance).
package workload

import (
	"fmt"

	"repro/internal/cobra"
	"repro/internal/compiler"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/openmp"
)

// Ctx is the running context handed to a workload's Setup and Run hooks.
type Ctx struct {
	M       *machine.Machine
	RT      *openmp.Runtime
	Res     *compiler.Result
	Bases   compiler.ArrayMap
	Threads int
}

// WriteF64 initializes one element of a workload array from the host.
// NUMA first-touch is not triggered by host initialization — placement
// happens on first simulated access, as on a freshly faulted page.
func (c *Ctx) WriteF64(array string, i int64, v float64) {
	c.M.Memory().WriteF64(c.Bases[array]+uint64(8*i), v)
}

// WriteI64 initializes one int64 element.
func (c *Ctx) WriteI64(array string, i int64, v int64) {
	c.M.Memory().WriteI64(c.Bases[array]+uint64(8*i), v)
}

// ReadF64 reads back one element after a run.
func (c *Ctx) ReadF64(array string, i int64) float64 {
	return c.M.Memory().ReadF64(c.Bases[array] + uint64(8*i))
}

// ReadI64 reads back one int64 element.
func (c *Ctx) ReadI64(array string, i int64) int64 {
	return c.M.Memory().ReadI64(c.Bases[array] + uint64(8*i))
}

// ParallelFor runs the named compiled parallel function over [0, trip).
func (c *Ctx) ParallelFor(fn string, trip int64, bind openmp.Binder) error {
	cf, ok := c.Res.Funcs[fn]
	if !ok {
		return fmt.Errorf("workload: no compiled function %q", fn)
	}
	return c.RT.ParallelFor(cf.Fn, trip, bind)
}

// Serial runs the named compiled function on the master thread.
func (c *Ctx) Serial(fn string, bind openmp.Binder) error {
	cf, ok := c.Res.Funcs[fn]
	if !ok {
		return fmt.Errorf("workload: no compiled function %q", fn)
	}
	return c.RT.Serial(cf.Fn, bind)
}

// FloatArg returns the register of a float parameter of fn (for binders).
func (c *Ctx) FloatArg(fn, param string) uint8 {
	return c.Res.Funcs[fn].FloatArgs[param]
}

// IntArg returns the register of an int parameter of fn.
func (c *Ctx) IntArg(fn, param string) uint8 {
	return c.Res.Funcs[fn].IntArgs[param]
}

// Workload is one benchmark program.
type Workload struct {
	Name  string
	Prog  *loopir.Program
	Setup func(c *Ctx) error // host-side array initialization
	Run   func(c *Ctx) error // phase driver
	// Verify optionally checks results after Run.
	Verify func(c *Ctx) error
}

// BuildConfig assembles one experiment configuration.
type BuildConfig struct {
	Machine  machine.Config
	Threads  int
	Compiler compiler.Options
	// Affinity pins OpenMP thread i to CPU Affinity[i] (nil = identity).
	// Placement and timing both depend on where threads run, so the
	// field is hashed; omitempty keeps legacy content hashes stable.
	Affinity []int `json:",omitempty"`
	// Cobra, when non-nil, attaches a COBRA runtime with this config.
	Cobra *cobra.Config
	// Obs, when non-nil, threads an observability sink through the whole
	// stack (machine, OpenMP regions, COBRA). Excluded from JSON so
	// scheduler/ledger content hashes are identical with and without
	// observability.
	Obs *obs.Observer `json:"-"`
}

// SMPConfig is a convenience 4-way SMP build configuration.
func SMPConfig(threads int) BuildConfig {
	mc := machine.DefaultConfig(threads)
	return BuildConfig{Machine: mc, Threads: threads, Compiler: compiler.DefaultOptions()}
}

// NUMAConfig is a convenience SGI-Altix-like build configuration.
func NUMAConfig(threads int) BuildConfig {
	mc := machine.DefaultConfig(threads)
	mc.Mem = mem.AltixNUMA(threads)
	return BuildConfig{Machine: mc, Threads: threads, Compiler: compiler.DefaultOptions()}
}

// NUMANodesConfig is an Altix-like build configuration over an explicit —
// possibly asymmetric — node list. The latency model is AltixNUMA's; only
// the shape (and optionally per-node capacity) differs. threads may be
// fewer than the topology's CPUs (idle processors still snoop).
func NUMANodesConfig(threads int, nodes []mem.NodeConfig) BuildConfig {
	total := 0
	for _, n := range nodes {
		total += n.CPUs
	}
	mc := machine.DefaultConfig(total)
	mc.Mem = mem.AltixNUMA(total)
	mc.Mem.Nodes = nodes
	return BuildConfig{Machine: mc, Threads: threads, Compiler: compiler.DefaultOptions()}
}

// Instance is a fully assembled run: machine, binary, runtime, optional
// COBRA.
type Instance struct {
	W     *Workload
	Ctx   *Ctx
	Cobra *cobra.Runtime
}

// Build compiles and wires a workload.
func Build(w *Workload, bc BuildConfig) (*Instance, error) {
	m, art, err := compileArtifact(w, bc)
	if err != nil {
		return nil, err
	}
	return assemble(w, bc, m, art.res, art.bases)
}

// assemble wires the runtime layers (OpenMP, optional COBRA) around an
// already-compiled machine — shared by Build and BuildCache.
func assemble(w *Workload, bc BuildConfig, m *machine.Machine, res *compiler.Result, bases compiler.ArrayMap) (*Instance, error) {
	rt, err := openmp.NewRuntime(m, bc.Threads)
	if err != nil {
		return nil, err
	}
	if bc.Affinity != nil {
		if err := rt.SetAffinity(bc.Affinity); err != nil {
			return nil, err
		}
	}
	inst := &Instance{
		W:   w,
		Ctx: &Ctx{M: m, RT: rt, Res: res, Bases: bases, Threads: bc.Threads},
	}
	if bc.Obs != nil {
		m.SetObserver(bc.Obs)
		bc.Obs.LabelTracks(m.NumCPUs())
	}
	if bc.Cobra != nil {
		cb := cobra.New(m, *bc.Cobra)
		rt.OnFork = cb.MonitorThread
		inst.Cobra = cb
	}
	return inst, nil
}

// Run performs Setup, Run and Verify.
func (inst *Instance) Run() error {
	if inst.W.Setup != nil {
		if err := inst.W.Setup(inst.Ctx); err != nil {
			return fmt.Errorf("%s setup: %w", inst.W.Name, err)
		}
	}
	if err := inst.W.Run(inst.Ctx); err != nil {
		return fmt.Errorf("%s run: %w", inst.W.Name, err)
	}
	if inst.W.Verify != nil {
		if err := inst.W.Verify(inst.Ctx); err != nil {
			return fmt.Errorf("%s verify: %w", inst.W.Name, err)
		}
	}
	return nil
}

// Measurement is what one run reports: the inputs of every figure.
type Measurement struct {
	Name    string
	Threads int
	Cycles  int64        // wall-clock simulated cycles across regions
	Mem     mem.CPUStats // summed memory-system counters
	Cobra   cobra.Stats
}

// Measure runs the instance and collects the metrics.
func (inst *Instance) Measure() (Measurement, error) {
	if err := inst.Run(); err != nil {
		return Measurement{}, err
	}
	mres := Measurement{
		Name:    inst.W.Name,
		Threads: inst.Ctx.Threads,
		Cycles:  inst.Ctx.RT.TotalCycles(),
		Mem:     inst.Ctx.M.Domain().TotalStats(),
	}
	if inst.Cobra != nil {
		mres.Cobra = inst.Cobra.Stats()
	}
	return mres, nil
}
