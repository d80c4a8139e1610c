// Package machine executes IA-64-like binaries on a simulated Itanium 2
// multiprocessor: each CPU is an in-order functional+timing model running
// against the coherent memory system of internal/mem, with a per-CPU
// performance monitoring unit (internal/hpm) fed by every retired
// instruction and memory transaction.
//
// The multiprocessor advances deterministically: a causal engine always
// steps the CPU with the smallest local cycle count, so coherence
// interactions between CPUs are ordered identically on every run and every
// reported figure is exactly reproducible.
package machine

import (
	"fmt"
	"math"

	"repro/internal/hpm"
	"repro/internal/ia64"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Config describes one simulated machine.
type Config struct {
	Mem mem.Config

	// MaxInstrPerRun bounds a single RunAll invocation; exceeded means a
	// runaway loop in generated code (0 = default of 4e9).
	MaxInstrPerRun int64

	// Migrations schedules mid-run affinity changes: at AtCycle the CPU's
	// NUMA node mapping is remapped to Node, modelling an OS scheduler
	// migrating a pinned thread across nodes. Migration changes simulated
	// timing (and, through first-touch, page homes), so it is part of the
	// scenario and contributes to content hashes; omitempty keeps every
	// migration-free legacy hash stable.
	Migrations []Migration `json:",omitempty"`
}

// Migration is one scheduled affinity change (see Config.Migrations).
type Migration struct {
	AtCycle int64
	CPU     int
	Node    int
}

// DefaultConfig returns a machine matching the paper's 4-way SMP server.
func DefaultConfig(numCPUs int) Config {
	return Config{Mem: mem.Itanium2SMP(numCPUs)}
}

// Timer is a recurring simulated-time callback — the mechanism by which the
// COBRA optimization thread is scheduled. Fn runs when global simulated
// time reaches NextAt and returns the next firing time (or a value <= now
// to cancel).
type Timer struct {
	NextAt int64
	Fn     func(now int64) int64
}

// Machine is one simulated multiprocessor running one program image.
type Machine struct {
	cfg    Config
	img    *ia64.Image
	memory *mem.Memory
	dom    *mem.Domain
	cpus   []*CPU
	timers []*Timer

	// timerNext caches the earliest pending Timer.NextAt (0 when none), so
	// the per-step dispatch check in RunAll is a single comparison instead
	// of a scan of the timer list.
	timerNext int64

	// obs is the optional observability sink; nil means disabled. The
	// per-instruction path (CPU.stepBundle and below) never consults it —
	// machine-level events are emitted only at RunAll boundaries, so a
	// disabled observer costs one nil check per region execution.
	obs        *obs.Observer
	obsRetired int64 // cumulative retired instructions for the counter track

	// interrupt, when non-nil, is polled roughly every interruptEvery
	// retired instructions during RunAll; a non-nil return aborts the run
	// with that error. This is how a service host cancels a simulation
	// mid-flight (context deadline, client disconnect) without threading a
	// context through the instruction hot path: the disabled state costs
	// one nil check per retired bundle.
	interrupt      func() error
	interruptEvery int64
	sinceInterrupt int64

	// keys holds RunAll's leader key per CPU (see cpuBits), noKey for a
	// CPU that is halted or outside the active set: a dense array the
	// pick scans without touching the CPU structs.
	keys []uint64
}

// New builds a machine for cfg executing img.
func New(cfg Config, img *ia64.Image) (*Machine, error) {
	if cfg.MaxInstrPerRun == 0 {
		cfg.MaxInstrPerRun = 4e9
	}
	memory := mem.NewMemory(cfg.Mem.MemBytes, cfg.Mem.PageSize)
	dom, err := mem.NewDomain(cfg.Mem, memory)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, img: img, memory: memory, dom: dom, keys: make([]uint64, cfg.Mem.NumCPUs)}
	for i := 0; i < cfg.Mem.NumCPUs; i++ {
		m.cpus = append(m.cpus, newCPU(m, i))
	}
	for i, mg := range cfg.Migrations {
		if !cfg.Mem.NUMA {
			return nil, fmt.Errorf("machine: migration %d requires a NUMA machine", i)
		}
		if mg.AtCycle <= 0 {
			return nil, fmt.Errorf("machine: migration %d at cycle %d (must be positive)", i, mg.AtCycle)
		}
		if mg.CPU < 0 || mg.CPU >= cfg.Mem.NumCPUs {
			return nil, fmt.Errorf("machine: migration %d moves CPU %d of %d", i, mg.CPU, cfg.Mem.NumCPUs)
		}
		if n := cfg.Mem.NumNodes(); mg.Node < 0 || mg.Node >= n {
			return nil, fmt.Errorf("machine: migration %d targets node %d of %d", i, mg.Node, n)
		}
		mg := mg
		m.AddTimer(&Timer{NextAt: mg.AtCycle, Fn: func(now int64) int64 {
			// Validated above; the only runtime failure mode would be a
			// non-NUMA interconnect, which NUMA=true rules out.
			_ = m.dom.MigrateCPU(mg.CPU, mg.Node)
			if m.obs != nil {
				if t := m.obs.Trace(); t != nil {
					t.Instant("machine", "migrate", obs.TIDRegions, now,
						map[string]any{"cpu": mg.CPU, "node": mg.Node})
				}
			}
			return 0
		}})
	}
	return m, nil
}

// Image returns the program image (the binary COBRA patches).
func (m *Machine) Image() *ia64.Image { return m.img }

// Memory returns the simulated physical memory.
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Domain returns the coherent memory system.
func (m *Machine) Domain() *mem.Domain { return m.dom }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCPUs returns the processor count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// SetObserver attaches an observability sink (nil detaches). Only RunAll
// boundaries emit machine-level events; the instruction hot path stays
// untouched, so the zero-alloc pins hold with an observer attached.
func (m *Machine) SetObserver(o *obs.Observer) { m.obs = o }

// Observer returns the attached observability sink (nil when disabled).
func (m *Machine) Observer() *obs.Observer { return m.obs }

// SetInterrupt installs fn as the run-interruption poll: RunAll calls it
// roughly every n retired instructions (n <= 0 selects a default of
// 50000, ~sub-millisecond reaction at simulator speed) and aborts with
// fn's error when it returns non-nil. fn runs on the simulating
// goroutine; it must be fast and must not touch machine state. A nil fn
// disables polling. The poll only reads simulation state, so an
// installed-but-quiet interrupt does not perturb simulated cycles —
// cancellation changes when a run stops, never what it computes.
func (m *Machine) SetInterrupt(fn func() error, n int64) {
	if n <= 0 {
		n = 50_000
	}
	m.interrupt = fn
	m.interruptEvery = n
	m.sinceInterrupt = 0
}

// pollInterrupt charges n retired instructions against the interrupt
// budget and fires the poll when it is spent. Callers guard on
// m.interrupt != nil so the disabled state costs one branch.
func (m *Machine) pollInterrupt(n int64) error {
	m.sinceInterrupt += n
	if m.sinceInterrupt < m.interruptEvery {
		return nil
	}
	m.sinceInterrupt = 0
	return m.interrupt()
}

// CPU returns processor id.
func (m *Machine) CPU(id int) *CPU { return m.cpus[id] }

// PMU returns the performance monitoring unit of processor id.
func (m *Machine) PMU(id int) *hpm.PMU { return m.cpus[id].PMU }

// AddTimer registers a simulated-time callback. Timers due at the same
// cycle fire in registration order. After registration the timer's NextAt
// must only change through its Fn return value; external mutation would
// desynchronize the cached earliest deadline.
func (m *Machine) AddTimer(t *Timer) {
	m.timers = append(m.timers, t)
	if t.NextAt > 0 && (m.timerNext == 0 || t.NextAt < m.timerNext) {
		m.timerNext = t.NextAt
	}
}

// fireTimers runs one dispatch pass at cycle now: every pending timer due
// at or before now fires once, in registration order; cancelled timers
// (Fn returned a time <= now) are compacted out of the list; and the
// earliest-deadline cache is recomputed.
func (m *Machine) fireTimers(now int64) {
	for _, t := range m.timers {
		if t.NextAt > 0 && t.NextAt <= now {
			next := t.Fn(now)
			if next <= now {
				t.NextAt = 0 // cancelled
			} else {
				t.NextAt = next
			}
		}
	}
	// Compact and recompute the deadline cache over m.timers itself, which
	// may have grown if a Fn registered new timers.
	live := m.timers[:0]
	m.timerNext = 0
	for _, t := range m.timers {
		if t.NextAt > 0 {
			if m.timerNext == 0 || t.NextAt < m.timerNext {
				m.timerNext = t.NextAt
			}
			live = append(live, t)
		}
	}
	m.timers = live
}

// SamplePC returns the current PC of cpu (perfmon.Context).
func (m *Machine) SamplePC(cpu int) int { return m.cpus[cpu].PC }

// SampleThreadID returns the software thread bound to cpu (perfmon.Context).
func (m *Machine) SampleThreadID(cpu int) int { return m.cpus[cpu].ThreadID }

// SampleCycle returns cpu's local clock (perfmon.Context).
func (m *Machine) SampleCycle(cpu int) int64 { return m.cpus[cpu].Cycle }

// ChargeCycles advances cpu's clock by n cycles — the cost of a sampling
// interrupt and monitoring-thread copy (perfmon.Context).
func (m *Machine) ChargeCycles(cpu int, n int64) { m.cpus[cpu].Cycle += n }

// GlobalCycle returns the largest per-CPU cycle count — wall-clock time of
// the simulated machine.
func (m *Machine) GlobalCycle() int64 {
	var max int64
	for _, c := range m.cpus {
		if c.Cycle > max {
			max = c.Cycle
		}
	}
	return max
}

// SyncClocks advances every CPU's clock to at least cycle — the barrier at
// the end of a parallel region.
func (m *Machine) SyncClocks(cycle int64) {
	for _, c := range m.cpus {
		if c.Cycle < cycle {
			c.Cycle = cycle
		}
	}
}

// StartThread binds a software thread to a CPU: the register file is
// prepared by setup, the PC set to entry, and the CPU marked runnable.
func (m *Machine) StartThread(cpu int, entry int, threadID int, setup func(rf *ia64.RegFile)) {
	c := m.cpus[cpu]
	c.RF.Reset()
	if setup != nil {
		setup(&c.RF)
	}
	c.PC = entry
	c.ThreadID = threadID
	c.Halted = false
}

// Leader keys pack a CPU's clock above its id, so the causal engine's
// (cycle, id) order is the integer order of the keys. The id field holds
// mem.MaxTopologyCPUs ids; maxClock is the largest clock that packs.
const (
	cpuBits  = 6
	cpuMask  = 1<<cpuBits - 1
	maxClock = math.MaxInt64 >> cpuBits
	noKey    = ^uint64(0)
)

// RunAll executes the given CPUs until all halt, firing timers in causal
// order (timers due at equal cycles fire in registration order). It returns
// the number of instructions retired during the run; a group that faults
// is counted nowhere. It is the causal engine: each step issues one bundle
// group on the runnable CPU with the smallest (cycle, id).
//
// That leader is the minimum of the packed leader keys, found with the
// runner-up in one branch-free pass. The leader then keeps stepping
// without a new pick while its key stays below the runner-up's and its
// clock below the next timer, since no other CPU moves while it steps.
// A due timer fires before the leader's next group; that group then runs
// alone, and every key is re-read before the next pick, because the
// timer's Fn may move any CPU.
//
// Calling RunAll with a non-empty set of CPUs that are all already halted
// while timers are pending is an error: no CPU will ever advance simulated
// time, so the timers could never fire and the call would silently report
// success without doing the work the caller queued. So is a clock beyond
// maxClock, which no key could order.
func (m *Machine) RunAll(active []int) (int64, error) {
	if err := m.loadKeys(active); err != nil {
		return 0, err
	}
	var retired int64
	for {
		lead, next := pick(m.keys)
		if lead == noKey {
			if retired == 0 && len(active) > 0 && m.timerNext != 0 {
				return 0, fmt.Errorf("machine: RunAll: all %d CPUs halted with a timer pending at cycle %d — timers can never fire (StartThread first)",
					len(active), m.timerNext)
			}
			m.emitRunEnd(retired)
			return retired, nil
		}
		id := int(lead & cpuMask)
		c := m.cpus[id]
		// The leader's key stays below next while its clock is below stop.
		stop := int64(next >> cpuBits)
		if uint64(id) < next&cpuMask {
			stop++
		}
		if m.timerNext != 0 && m.timerNext <= c.Cycle {
			m.fireTimers(c.Cycle)
			if err := m.loadKeys(active); err != nil {
				return retired, err
			}
			stop = c.Cycle
		} else if m.timerNext != 0 {
			stop = min(stop, m.timerNext)
		}
		for {
			n, err := c.stepBundle()
			if err != nil {
				return retired, err
			}
			retired += n
			if retired > m.cfg.MaxInstrPerRun {
				return retired, fmt.Errorf("machine: instruction budget %d exceeded (runaway loop? PC=%d on CPU %d)",
					m.cfg.MaxInstrPerRun, c.PC, id)
			}
			if m.interrupt != nil {
				if err := m.pollInterrupt(n); err != nil {
					return retired, fmt.Errorf("machine: run interrupted: %w", err)
				}
			}
			if c.Halted || c.Cycle >= stop {
				break
			}
		}
		if err := m.setKey(id); err != nil {
			return retired, err
		}
	}
}

// pick returns the smallest key and the runner-up, with three conditional
// moves per key. It stays out of line: inlined into RunAll the compiler
// turns the min/max pair into a jump, and the leader's position changes
// from pick to pick.
//
//go:noinline
func pick(keys []uint64) (lead, next uint64) {
	lead, next = noKey, noKey
	for _, k := range keys {
		lo, hi := min(lead, k), max(lead, k)
		lead, next = lo, min(next, hi)
	}
	return lead, next
}

// loadKeys re-reads every CPU's leader key: active CPUs from their
// state, all others noKey.
func (m *Machine) loadKeys(active []int) error {
	for i := range m.keys {
		m.keys[i] = noKey
	}
	for _, id := range active {
		if err := m.setKey(id); err != nil {
			return err
		}
	}
	return nil
}

// setKey packs CPU id's clock into its leader key, noKey once it halted.
// A clock no key can hold is an error, not a silent wrap of the order.
func (m *Machine) setKey(id int) error {
	c := m.cpus[id]
	switch {
	case c.Halted:
		m.keys[id] = noKey
	case uint64(c.Cycle) > maxClock:
		return fmt.Errorf("machine: RunAll: CPU %d clock %d exceeds %d, the largest the causal engine orders", id, c.Cycle, maxClock)
	default:
		m.keys[id] = uint64(c.Cycle)<<cpuBits | uint64(id)
	}
	return nil
}

// emitRunEnd publishes the machine-level observability events of one
// completed run. Only the all-halted exit of RunAll reaches it, so a run
// emits exactly once.
func (m *Machine) emitRunEnd(retired int64) {
	if m.obs == nil {
		return
	}
	m.obsRetired += retired
	if t := m.obs.Trace(); t != nil {
		t.Counter("retired", 0, m.GlobalCycle(),
			map[string]float64{"instructions": float64(m.obsRetired)})
	}
	m.obs.Metrics().Counter("machine.runs").Inc()
}

// Run executes a single CPU until it halts.
func (m *Machine) Run(cpu int) (int64, error) {
	return m.RunAll([]int{cpu})
}
