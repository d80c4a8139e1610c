package serve

import (
	"fmt"

	"repro/internal/cobra"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Spec is the portable description of one optimization session: which
// workload to run, on which machine model, at what scale, under which
// COBRA strategy. It is the JSON request body of the cobrad service and
// the parsed flag set of the cobra-run CLI — both front ends build their
// scheduler job through the same Spec methods, so a session served by
// cobrad is byte-identical to the equivalent batch invocation, including
// its run-ledger content hash.
type Spec struct {
	// Workload is daxpy, phased, an irregular kernel (pointerchase,
	// hashjoin, spmv), or an NPB benchmark (bt, sp, lu, ft, mg, cg, ep,
	// is). Empty defaults to daxpy.
	Workload string `json:"workload"`
	// Threads is the worker thread count; 0 defaults to 4. Without an
	// explicit topology this is also the CPU count.
	Threads int `json:"threads,omitempty"`
	// Machine is smp (front-side bus) or numa (Altix-like); empty
	// defaults to smp.
	Machine string `json:"machine,omitempty"`
	// Topology declares an explicit — possibly asymmetric — NUMA node
	// list (machine must be numa). Empty keeps the uniform legacy shape.
	Topology []NodeSpec `json:"topology,omitempty"`
	// Placement is the page-placement policy: first-touch (default,
	// normalized to empty so legacy content hashes are preserved),
	// interleave, or bind. Non-first-touch requires machine numa.
	Placement string `json:"placement,omitempty"`
	// BindNode is the home node for placement=bind (0 otherwise).
	BindNode int `json:"bind_node,omitempty"`
	// Affinity pins OpenMP thread i to CPU Affinity[i]; nil keeps the
	// identity binding. Must name Threads distinct CPUs of the topology.
	Affinity []int `json:"affinity,omitempty"`
	// MigrateAt, when > 0, remaps CPU MigrateCPU to node MigrateNode at
	// that machine cycle — the mid-run migration scenario (numa only).
	MigrateAt   int64 `json:"migrate_at,omitempty"`
	MigrateCPU  int   `json:"migrate_cpu,omitempty"`
	MigrateNode int   `json:"migrate_node,omitempty"`
	// Strategy is off, monitor, noprefetch, excl, adaptive, bias,
	// multiversion, causal or layout; empty defaults to off.
	Strategy string `json:"strategy,omitempty"`
	// ClassS selects class-S-scaled NPB sizes (nil/true) vs tiny (false).
	ClassS *bool `json:"class_s,omitempty"`
	// DaxpyWS is the DAXPY working-set size in bytes; 0 defaults to 128 KiB.
	DaxpyWS int64 `json:"daxpy_ws,omitempty"`
	// DaxpyReps is the DAXPY outer repetition count; 0 defaults to 100.
	DaxpyReps int `json:"daxpy_reps,omitempty"`
}

// NodeSpec declares one NUMA node of an explicit topology: its CPU count
// and, optionally, a memory capacity in MiB (0 = unbounded, at most
// MaxNodeMemMB). Capacity
// only constrains placement=bind, which spills to the nearest node with
// free pages once the bind node fills.
type NodeSpec struct {
	CPUs  int   `json:"cpus"`
	MemMB int64 `json:"mem_mb,omitempty"`
}

// Bounds enforced by Validate. They bound a single session's memory and
// runtime, which is what lets cobrad promise that a bounded queue of
// validated sessions cannot OOM the process.
const (
	// MaxThreads admits the 16- and 32-CPU NUMA topologies, which the
	// serial causal engine runs like any smaller machine.
	MaxThreads   = 32
	MinDaxpyWS   = 4 << 10
	MaxDaxpyWS   = 64 << 20
	MaxDaxpyReps = 100_000
	// MinTopologyMemMB is the floor on total declared capacity when every
	// node of a topology is capacity-bounded: a session's arrays have to
	// fit somewhere, so an all-bounded topology below this is rejected as
	// a capacity overflow before any machine is built.
	MinTopologyMemMB = 16
	// MaxNodeMemMB bounds one node's declared capacity at 1 TiB, 4096
	// times the simulated memory, so mem_mb << 20 cannot wrap.
	MaxNodeMemMB = 1 << 20
)

// strategies maps each accepted strategy name to the COBRA runtime a
// session attaches: none for off, otherwise the machine's configuration
// of strategy.
var strategies = map[string]struct {
	attach   bool
	strategy cobra.Strategy
}{
	"off":          {},
	"monitor":      {true, cobra.StrategyOff},
	"noprefetch":   {true, cobra.StrategyNoprefetch},
	"excl":         {true, cobra.StrategyExcl},
	"adaptive":     {true, cobra.StrategyAdaptive},
	"bias":         {true, cobra.StrategyBias},
	"multiversion": {true, cobra.StrategyMultiVersion},
	"causal":       {true, cobra.StrategyCausal},
	"layout":       {true, cobra.StrategyLayout},
}

var npbNames = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range npb.Names {
		m[n] = true
	}
	return m
}()

// Normalize fills defaults in place; the zero Spec normalizes to the
// cobra-run CLI's defaults (daxpy, 4 threads, smp, strategy off).
func (s *Spec) Normalize() {
	if s.Workload == "" {
		s.Workload = "daxpy"
	}
	if s.Threads == 0 {
		s.Threads = 4
	}
	if s.Machine == "" {
		s.Machine = "smp"
	}
	if s.Strategy == "" {
		s.Strategy = "off"
	}
	// first-touch is the policy the simulator has always had; canonicalize
	// to the empty string so the mem.Config field stays omitempty and every
	// pre-matrix spec keeps its historical ledger content hash.
	if s.Placement == "first-touch" {
		s.Placement = ""
	}
	if s.Workload == "daxpy" {
		if s.DaxpyWS == 0 {
			s.DaxpyWS = 128 << 10
		}
		if s.DaxpyReps == 0 {
			s.DaxpyReps = 100
		}
	}
}

// Validate reports the first problem with a normalized spec, with enough
// context for an HTTP 400 body to be actionable.
func (s *Spec) Validate() error {
	switch {
	case s.Workload == "daxpy", s.Workload == "phased", npbNames[s.Workload],
		s.Workload == "pointerchase", s.Workload == "hashjoin", s.Workload == "spmv":
	default:
		return fmt.Errorf("unknown workload %q (want daxpy, phased, pointerchase, hashjoin, spmv, or one of %v)", s.Workload, npb.Names)
	}
	if s.Threads < 1 || s.Threads > MaxThreads {
		return fmt.Errorf("threads %d out of range [1, %d]", s.Threads, MaxThreads)
	}
	if s.Machine != "smp" && s.Machine != "numa" {
		return fmt.Errorf("unknown machine %q (want smp or numa)", s.Machine)
	}
	if err := s.validateScenario(); err != nil {
		return err
	}
	if _, ok := strategies[s.Strategy]; !ok {
		return fmt.Errorf("unknown strategy %q (want off, monitor, noprefetch, excl, adaptive, bias, multiversion, causal or layout)", s.Strategy)
	}
	if s.Workload == "daxpy" {
		if s.DaxpyWS < MinDaxpyWS || s.DaxpyWS > MaxDaxpyWS {
			return fmt.Errorf("daxpy_ws %d out of range [%d, %d]", s.DaxpyWS, MinDaxpyWS, MaxDaxpyWS)
		}
		if s.DaxpyWS%8 != 0 {
			return fmt.Errorf("daxpy_ws %d not a multiple of 8", s.DaxpyWS)
		}
		if s.DaxpyReps < 1 || s.DaxpyReps > MaxDaxpyReps {
			return fmt.Errorf("daxpy_reps %d out of range [1, %d]", s.DaxpyReps, MaxDaxpyReps)
		}
	}
	return nil
}

// validateScenario checks the scenario-matrix fields: topology shape,
// placement policy, affinity map and migration point. Every rejection
// here is a 400 in cobrad before any machine memory is allocated.
func (s *Spec) validateScenario() error {
	if len(s.Topology) > 0 {
		if s.Machine != "numa" {
			return fmt.Errorf("topology requires machine numa, not %q", s.Machine)
		}
		total, bounded, totalMB := 0, true, int64(0)
		for i, n := range s.Topology {
			// The per-node bound keeps the total from wrapping: nodes of
			// 2^62 CPUs must not sum to a small count.
			if n.CPUs < 1 || n.CPUs > mem.MaxTopologyCPUs {
				return fmt.Errorf("topology node %d has %d CPUs (want 1 to %d)", i, n.CPUs, mem.MaxTopologyCPUs)
			}
			if n.MemMB < 0 {
				return fmt.Errorf("topology node %d has negative mem_mb %d", i, n.MemMB)
			}
			if n.MemMB > MaxNodeMemMB {
				return fmt.Errorf("topology node %d has mem_mb %d (max %d)", i, n.MemMB, MaxNodeMemMB)
			}
			total += n.CPUs
			if n.MemMB == 0 {
				bounded = false
			}
			totalMB += n.MemMB
		}
		if total > mem.MaxTopologyCPUs {
			return fmt.Errorf("topology has %d CPUs (max %d)", total, mem.MaxTopologyCPUs)
		}
		if total < s.Threads {
			return fmt.Errorf("topology has %d CPUs for %d threads", total, s.Threads)
		}
		if bounded && totalMB < MinTopologyMemMB {
			return fmt.Errorf("topology capacity %d MiB overflows: every node is bounded and the total is below %d MiB", totalMB, MinTopologyMemMB)
		}
	}
	switch s.Placement {
	case "", "first-touch", "interleave", "bind":
	default:
		return fmt.Errorf("unknown placement %q (want first-touch, interleave or bind)", s.Placement)
	}
	if s.Placement != "" && s.Placement != "first-touch" && s.Machine != "numa" {
		return fmt.Errorf("placement %q requires machine numa", s.Placement)
	}
	numNodes := len(s.Topology)
	if numNodes == 0 && s.Machine == "numa" {
		numNodes = mem.AltixNUMA(s.numCPUs()).NumNodes()
	}
	if s.Placement == "bind" {
		if s.BindNode < 0 || s.BindNode >= numNodes {
			return fmt.Errorf("bind_node %d out of range [0, %d)", s.BindNode, numNodes)
		}
	} else if s.BindNode != 0 {
		return fmt.Errorf("bind_node %d set without placement bind", s.BindNode)
	}
	if s.Affinity != nil {
		if len(s.Affinity) != s.Threads {
			return fmt.Errorf("affinity names %d CPUs for %d threads", len(s.Affinity), s.Threads)
		}
		seen := make(map[int]bool, len(s.Affinity))
		for t, cpu := range s.Affinity {
			if cpu < 0 || cpu >= s.numCPUs() {
				return fmt.Errorf("affinity[%d] = CPU %d of %d", t, cpu, s.numCPUs())
			}
			if seen[cpu] {
				return fmt.Errorf("affinity binds CPU %d twice", cpu)
			}
			seen[cpu] = true
		}
	}
	switch {
	case s.MigrateAt < 0:
		return fmt.Errorf("migrate_at %d negative", s.MigrateAt)
	case s.MigrateAt == 0:
		if s.MigrateCPU != 0 || s.MigrateNode != 0 {
			return fmt.Errorf("migrate_cpu/migrate_node set without migrate_at")
		}
	default:
		if s.Machine != "numa" {
			return fmt.Errorf("migration requires machine numa")
		}
		if s.MigrateCPU < 0 || s.MigrateCPU >= s.numCPUs() {
			return fmt.Errorf("migrate_cpu %d out of range [0, %d)", s.MigrateCPU, s.numCPUs())
		}
		if s.MigrateNode < 0 || s.MigrateNode >= numNodes {
			return fmt.Errorf("migrate_node %d out of range [0, %d)", s.MigrateNode, numNodes)
		}
	}
	return nil
}

// numCPUs is the machine's CPU count: the topology's total when declared,
// the thread count otherwise (the legacy one-CPU-per-thread shape).
func (s *Spec) numCPUs() int {
	if len(s.Topology) == 0 {
		return s.Threads
	}
	total := 0
	for _, n := range s.Topology {
		total += n.CPUs
	}
	return total
}

// memNodes maps the declared topology to mem.NodeConfig (nil when the
// spec keeps the uniform legacy shape).
func (s *Spec) memNodes() []mem.NodeConfig {
	if len(s.Topology) == 0 {
		return nil
	}
	nodes := make([]mem.NodeConfig, len(s.Topology))
	for i, n := range s.Topology {
		nodes[i] = mem.NodeConfig{CPUs: n.CPUs, MemBytes: uint64(n.MemMB) << 20}
	}
	return nodes
}

func (s *Spec) classS() bool { return s.ClassS == nil || *s.ClassS }

// params returns the typed parameter value that contributes to the
// session's content hash — the same values cobra-run has always hashed,
// so ledger entries are shared between the CLI and the service.
func (s *Spec) params() any {
	switch {
	case s.Workload == "daxpy":
		return workload.DaxpyParams{WorkingSetBytes: s.DaxpyWS, OuterReps: s.DaxpyReps}
	case s.Workload == "phased":
		return workload.PhasedDaxpyParams{}
	case s.Workload == "pointerchase":
		return workload.PointerChaseParams{}.WithDefaults()
	case s.Workload == "hashjoin":
		return workload.HashJoinParams{}.WithDefaults()
	case s.Workload == "spmv":
		return workload.SpmvParams{}.WithDefaults()
	default:
		class := npb.ClassT
		if s.classS() {
			class = npb.ClassS
		}
		return npb.Params{Class: class}
	}
}

// buildWorkload constructs the workload program. Deterministic: a pure
// function of the spec.
func (s *Spec) buildWorkload() (*workload.Workload, error) {
	switch p := s.params().(type) {
	case workload.DaxpyParams:
		return workload.Daxpy(p), nil
	case workload.PhasedDaxpyParams:
		return workload.PhasedDaxpy(p), nil
	case workload.PointerChaseParams:
		return workload.PointerChase(p), nil
	case workload.HashJoinParams:
		return workload.HashJoin(p), nil
	case workload.SpmvParams:
		return workload.Spmv(p), nil
	case npb.Params:
		return npb.Build(s.Workload, p)
	}
	panic("unreachable")
}

// buildConfig assembles the machine + strategy configuration.
func (s *Spec) buildConfig() (workload.BuildConfig, error) {
	var bc workload.BuildConfig
	switch {
	case s.Machine == "smp":
		bc = workload.SMPConfig(s.Threads)
	case s.Machine == "numa" && len(s.Topology) > 0:
		bc = workload.NUMANodesConfig(s.Threads, s.memNodes())
	case s.Machine == "numa":
		bc = workload.NUMAConfig(s.Threads)
	default:
		return bc, fmt.Errorf("unknown machine %q", s.Machine)
	}
	// Scenario-matrix knobs. All the underlying config fields are
	// omitempty, so a spec that leaves them at their defaults hashes to
	// the historical ledger key.
	if s.Placement != "" && s.Placement != "first-touch" {
		bc.Machine.Mem.Placement = mem.PlacementPolicy(s.Placement)
		bc.Machine.Mem.BindNode = s.BindNode
	}
	if s.Affinity != nil {
		bc.Affinity = append([]int(nil), s.Affinity...)
	}
	if s.MigrateAt > 0 {
		bc.Machine.Migrations = []machine.Migration{
			{AtCycle: s.MigrateAt, CPU: s.MigrateCPU, Node: s.MigrateNode},
		}
	}
	st, ok := strategies[s.Strategy]
	if !ok {
		return bc, fmt.Errorf("unknown strategy %q", s.Strategy)
	}
	if st.attach {
		c := cobra.ConfigFor(st.strategy, bc.Machine.Mem)
		bc.Cobra = &c
	}
	return bc, nil
}

// Key is the session's content hash. It reproduces the historical
// cobra-run job key exactly — KeyOf("cobra-run", workload, params,
// buildConfig) — so service sessions and batch runs share one run-ledger
// namespace.
func (s *Spec) Key() (string, error) {
	bc, err := s.buildConfig()
	if err != nil {
		return "", err
	}
	return sched.KeyOf("cobra-run", s.Workload, s.params(), bc), nil
}

// Name is the human-readable job label ("daxpy/t=4/smp/off").
func (s *Spec) Name() string {
	return fmt.Sprintf("%s/t=%d/%s/%s", s.Workload, s.Threads, s.Machine, s.Strategy)
}

// workloadKey identifies the compiled program content for the build
// cache, using the same conventions as internal/experiment so a shared
// cache reuses compiles across the service and sweep paths.
func (s *Spec) workloadKey() string {
	switch {
	case s.Workload == "daxpy":
		return sched.KeyOf("daxpy", s.params())
	case s.Workload == "phased":
		return sched.KeyOf("phased", s.params())
	case s.Workload == "pointerchase", s.Workload == "hashjoin", s.Workload == "spmv":
		return sched.KeyOf(s.Workload, s.params())
	default:
		return sched.KeyOf("npb", s.Workload, s.params())
	}
}

// Instantiate builds the full session stack: workload program, machine
// (cloned from the cache's pristine compiled image when cache is non-nil,
// compiled fresh otherwise), OpenMP runtime, optional COBRA, optional
// observer. Each call returns an independent instance — concurrent
// sessions share no mutable state.
func (s *Spec) Instantiate(cache *workload.BuildCache, o *obs.Observer) (*workload.Instance, error) {
	w, err := s.buildWorkload()
	if err != nil {
		return nil, err
	}
	bc, err := s.buildConfig()
	if err != nil {
		return nil, err
	}
	bc.Obs = o
	if cache != nil {
		return cache.Build(s.workloadKey(), w, bc)
	}
	return workload.Build(w, bc)
}
