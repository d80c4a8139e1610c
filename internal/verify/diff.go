package verify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cobra"
	"repro/internal/ia64"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/openmp"
)

// Mode is one way of live-patching the program mid-run. Every mode must
// leave the architectural result bit-identical to the unpatched baseline:
// COBRA's rewrites (lfetch→nop, lfetch→lfetch.excl, trace redirection)
// change timing and coherence traffic, never values.
type Mode int

const (
	ModeInPlaceNop      Mode = iota // in-place lfetch → nop mid-run
	ModeInPlaceExcl                 // in-place lfetch → lfetch.excl mid-run
	ModeTraceNop                    // trace-cache copy + entry redirect, nop rewrite
	ModeTraceExcl                   // trace-cache copy + entry redirect, excl rewrite
	ModeRollback                    // in-place nop deployed mid-run, rolled back later
	ModeVariantSwitch               // resident variant table, dispatch switched mid-phase
	ModeVariantRollback             // variant table switched, then restored to original
	ModeLayout                      // BOLT-style reordered block copy dispatched mid-run
	ModeLayoutRollback              // reordered copy dispatched, then restored mid-run
	ModePlacement                   // asymmetric NUMA under each placement policy, no patch
	ModeMigration                   // mid-run CPU-to-node migration under a live patch
)

// AllModes returns every differential mode, in deterministic order.
func AllModes() []Mode {
	return []Mode{
		ModeInPlaceNop, ModeInPlaceExcl, ModeTraceNop, ModeTraceExcl, ModeRollback,
		ModeVariantSwitch, ModeVariantRollback, ModeLayout, ModeLayoutRollback,
		ModePlacement, ModeMigration,
	}
}

// policyLabel names a placement policy in mode-result labels (the empty
// string is the first-touch default).
func policyLabel(p mem.PlacementPolicy) string {
	if p == mem.PlaceFirstTouch {
		return "firsttouch"
	}
	return string(p)
}

func (m Mode) String() string {
	switch m {
	case ModeInPlaceNop:
		return "inplace-nop"
	case ModeInPlaceExcl:
		return "inplace-excl"
	case ModeTraceNop:
		return "trace-nop"
	case ModeTraceExcl:
		return "trace-excl"
	case ModeRollback:
		return "rollback"
	case ModeVariantSwitch:
		return "variant-switch"
	case ModeVariantRollback:
		return "variant-rollback"
	case ModeLayout:
		return "layout"
	case ModeLayoutRollback:
		return "layout-rollback"
	case ModePlacement:
		return "placement"
	case ModeMigration:
		return "migration"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode is the inverse of String (cobra-verify's -modes flag).
func ParseMode(s string) (Mode, error) {
	for _, m := range AllModes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("verify: unknown mode %q", s)
}

// deadline indexes a patchPlan's cycles.
type deadline int

const (
	atDeploy   deadline = iota // deploy the variant table
	atSwitch                   // switch to another resident variant
	atRollback                 // restore the original code
)

// step is one dispatch of a live-patch schedule: at its deadline the
// plan switches to variant (-1 = the original code). The atDeploy step
// first deploys the mode's variant table.
type step struct {
	at      deadline
	variant int
}

// modePlan is how one patch mode live-patches the program. Every
// dispatch is a Patcher.Switch, and the architectural result must stay
// bit-identical through every schedule.
type modePlan struct {
	trace bool // trace-cache patcher; false rewrites in place
	// layout deploys one BOLT-style reordered copy of the layout target,
	// built at deploy time; otherwise the table holds one variant per
	// rewrite of every lfetch in the patch target.
	layout   bool
	rewrites []cobra.Rewrite
	steps    []step // in time order
}

var (
	nop     = []cobra.Rewrite{cobra.RewriteNop}
	excl    = []cobra.Rewrite{cobra.RewriteExcl}
	nopExcl = []cobra.Rewrite{cobra.RewriteNop, cobra.RewriteExcl}
)

// modePlans holds the plan of every patch mode (ModePlacement patches
// nothing).
var modePlans = map[Mode]modePlan{
	ModeInPlaceNop:      {rewrites: nop, steps: []step{{atDeploy, 0}}},
	ModeInPlaceExcl:     {rewrites: excl, steps: []step{{atDeploy, 0}}},
	ModeTraceNop:        {trace: true, rewrites: nop, steps: []step{{atDeploy, 0}}},
	ModeTraceExcl:       {trace: true, rewrites: excl, steps: []step{{atDeploy, 0}}},
	ModeRollback:        {rewrites: nop, steps: []step{{atDeploy, 0}, {atRollback, -1}}},
	ModeVariantSwitch:   {trace: true, rewrites: nopExcl, steps: []step{{atDeploy, 0}, {atSwitch, 1}}},
	ModeVariantRollback: {trace: true, rewrites: nopExcl, steps: []step{{atDeploy, 0}, {atSwitch, 1}, {atRollback, -1}}},
	ModeLayout:          {trace: true, layout: true, steps: []step{{atDeploy, 0}}},
	ModeLayoutRollback:  {trace: true, layout: true, steps: []step{{atDeploy, 0}, {atRollback, -1}}},
	ModeMigration:       {rewrites: nop, steps: []step{{atDeploy, 0}}},
}

// cpuState is the logical architectural register state of one CPU:
// general registers, floating registers as raw bits, predicates, and the
// loop-control application registers. Logical (post-rotation) views, so
// two runs that rotated different amounts but compute the same values
// still compare equal.
type cpuState struct {
	GR [ia64.NumGR]int64
	FR [ia64.NumFR]uint64
	PR [ia64.NumPR]bool
	LC int64
	EC int64
}

type segWords struct {
	Name  string
	Base  uint64
	Words []int64
}

// archState is the full architectural state the oracle compares: every
// CPU's register file plus the contents of every allocated memory
// segment.
type archState struct {
	CPUs []cpuState
	Segs []segWords
}

func snapshotState(m *machine.Machine) *archState {
	st := &archState{}
	for id := 0; id < m.NumCPUs(); id++ {
		rf := &m.CPU(id).RF
		var cs cpuState
		for r := 0; r < ia64.NumGR; r++ {
			cs.GR[r] = rf.GR(uint8(r))
		}
		for r := 0; r < ia64.NumFR; r++ {
			cs.FR[r] = math.Float64bits(rf.FR(uint8(r)))
		}
		for p := 0; p < ia64.NumPR; p++ {
			cs.PR[p] = rf.PR(uint8(p))
		}
		cs.LC, cs.EC = rf.LC, rf.EC
		st.CPUs = append(st.CPUs, cs)
	}
	for _, seg := range m.Memory().Segments() {
		sw := segWords{Name: seg.Name, Base: seg.Base}
		for off := uint64(0); off+8 <= seg.Size; off += 8 {
			sw.Words = append(sw.Words, m.Memory().ReadI64(seg.Base+off))
		}
		st.Segs = append(st.Segs, sw)
	}
	return st
}

// diffStates reports every field where got differs from want, up to
// limit entries — enough to localize a divergence without drowning the
// report when a patch corrupts a whole array.
func diffStates(want, got *archState, limit int) []string {
	var out []string
	add := func(format string, a ...any) bool {
		if len(out) >= limit {
			return false
		}
		out = append(out, fmt.Sprintf(format, a...))
		return true
	}
	if len(want.CPUs) != len(got.CPUs) || len(want.Segs) != len(got.Segs) {
		add("shape: %d/%d CPUs, %d/%d segments", len(got.CPUs), len(want.CPUs), len(got.Segs), len(want.Segs))
		return out
	}
	for id := range want.CPUs {
		w, g := &want.CPUs[id], &got.CPUs[id]
		for r := range w.GR {
			if w.GR[r] != g.GR[r] && !add("cpu%d r%d: got %d want %d", id, r, g.GR[r], w.GR[r]) {
				return out
			}
		}
		for r := range w.FR {
			if w.FR[r] != g.FR[r] && !add("cpu%d f%d: got %#x want %#x", id, r, g.FR[r], w.FR[r]) {
				return out
			}
		}
		for p := range w.PR {
			if w.PR[p] != g.PR[p] && !add("cpu%d p%d: got %v want %v", id, p, g.PR[p], w.PR[p]) {
				return out
			}
		}
		if w.LC != g.LC && !add("cpu%d ar.lc: got %d want %d", id, g.LC, w.LC) {
			return out
		}
		if w.EC != g.EC && !add("cpu%d ar.ec: got %d want %d", id, g.EC, w.EC) {
			return out
		}
	}
	for s := range want.Segs {
		w, g := &want.Segs[s], &got.Segs[s]
		if w.Name != g.Name || len(w.Words) != len(g.Words) {
			if !add("segment %d: %s/%d words vs %s/%d words", s, g.Name, len(g.Words), w.Name, len(w.Words)) {
				return out
			}
			continue
		}
		for i := range w.Words {
			if w.Words[i] != g.Words[i] &&
				!add("mem %s[%d] (%#x): got %d want %d", w.Name, i, w.Base+uint64(8*i), g.Words[i], w.Words[i]) {
				return out
			}
		}
	}
	return out
}

// patchPlan schedules a live patch during a run. nil means baseline.
type patchPlan struct {
	mode Mode
	at   [3]int64 // cycle of each deadline the mode's steps use
}

// runOutcome is everything one execution of a generated program yields.
type runOutcome struct {
	state          *archState
	totalCycles    int64
	parallelCycles int64
	retired        int64
	deployed       bool

	invariantChecks     int64
	invariantViolations []string
}

// maxInstrPerRun bounds one generated-program execution. Generated loops
// are all counted with small immediates, so hitting this means the
// generator (or a patch) manufactured a runaway loop — exactly the class
// of bug the budget converts from a hang into a failure.
const maxInstrPerRun = 50_000_000

// runEnv is one fully-prepared execution environment: fresh machine on a
// cloned image, arrays allocated and seeded, openmp runtime bound, online
// MESI checking armed.
type runEnv struct {
	m    *machine.Machine
	rt   *openmp.Runtime
	img  *ia64.Image
	bind openmp.Binder
}

// numaScenario selects a non-default machine shape for a run: an
// asymmetric node-list NUMA topology under a placement policy, optionally
// with mid-run CPU migrations. Generated programs are race-free and
// therefore timing-independent, so every scenario must reproduce the SMP
// baseline's architectural state bit for bit.
type numaScenario struct {
	placement  mem.PlacementPolicy
	bindNode   int
	migrations []machine.Migration
}

// scenarioNodes is the asymmetric shape the NUMA modes run on: one CPU
// alone on node 0, the rest on node 1 (degenerating to a single node for
// one-thread programs).
func scenarioNodes(threads int) []mem.NodeConfig {
	if threads < 2 {
		return []mem.NodeConfig{{CPUs: threads}}
	}
	return []mem.NodeConfig{{CPUs: 1}, {CPUs: threads - 1}}
}

// setupRun builds a runEnv for p. Allocation order is fixed and memory
// contents re-derive from the seed, so every environment of the same
// program is bit-identically initialized and the simulator's determinism
// makes architectural outcomes comparable across runs. A non-nil sc
// swaps the SMP model for the asymmetric NUMA scenario.
func setupRun(p *Program, sc *numaScenario) (*runEnv, error) {
	img := p.Img.Clone()
	mcfg := machine.DefaultConfig(p.Cfg.Threads)
	if sc != nil {
		mcfg.Mem = mem.AltixNUMA(p.Cfg.Threads)
		mcfg.Mem.Nodes = scenarioNodes(p.Cfg.Threads)
		mcfg.Mem.Placement = sc.placement
		mcfg.Mem.BindNode = sc.bindNode
		mcfg.Migrations = sc.migrations
	}
	mcfg.Mem.MemBytes = 16 << 20
	mcfg.MaxInstrPerRun = maxInstrPerRun
	m, err := machine.New(mcfg, img)
	if err != nil {
		return nil, err
	}
	m.Domain().EnableInvariantChecks(0)

	memory := m.Memory()
	roBase, err := memory.Alloc("fuzz.ro", uint64(8*p.Cfg.ROWords), 128)
	if err != nil {
		return nil, err
	}
	rwBase, err := memory.Alloc("fuzz.rw", uint64(8*p.RWWords()), 128)
	if err != nil {
		return nil, err
	}
	resBase, err := memory.Alloc("fuzz.res", 8, 128)
	if err != nil {
		return nil, err
	}
	init := rand.New(rand.NewSource(p.Cfg.Seed ^ 0x0b5e55ed))
	for i := 0; i < p.Cfg.ROWords; i++ {
		memory.WriteI64(roBase+uint64(8*i), init.Int63n(1<<32))
	}
	for i := 0; i < p.RWWords(); i++ {
		memory.WriteI64(rwBase+uint64(8*i), init.Int63n(1<<32))
	}

	rt, err := openmp.NewRuntime(m, p.Cfg.Threads)
	if err != nil {
		return nil, err
	}
	bind := func(tid int, rf *ia64.RegFile) {
		rf.SetGR(regRO, int64(roBase))
		rf.SetGR(regRW, int64(rwBase))
		rf.SetGR(regTIDOff, int64(tid*8))
		rf.SetGR(regRes, int64(resBase))
	}
	return &runEnv{m: m, rt: rt, img: img, bind: bind}, nil
}

// run executes the kernel region and the serial reduction.
func (e *runEnv) run(p *Program) error {
	if err := e.rt.ParallelFor(p.Kernel, int64(p.Cfg.Threads), e.bind); err != nil {
		return err
	}
	return e.rt.Serial(p.Reduce, e.bind)
}

// triagePatchErr classifies a deploy failure by the patcher's typed
// sentinels: ErrNoRewritableSlots and ErrAlreadyPatched mean the patcher
// declined cleanly, so the run continues unpatched and the mode result
// reports "patch never deployed" instead of aborting the whole seed with
// an execution error. Anything else is a patcher bug and stays fatal.
func triagePatchErr(err error) error {
	if errors.Is(err, cobra.ErrNoRewritableSlots) || errors.Is(err, cobra.ErrAlreadyPatched) {
		return nil
	}
	return err
}

// syntheticEdges builds a deterministic pseudo-profile for the layout
// fuzz modes: every in-region taken edge — each branch's target plus the
// latch's backward edge — gets a seed- and slot-derived weight, so across
// the corpus the greedy trace selection is steered through many different
// block orders while each seed stays exactly reproducible. The oracle has
// no PMU attached; any profile must yield a state-preserving layout, so
// the weights only have to vary, not to be real.
func syntheticEdges(img *ia64.Image, region cobra.Region, seed int64) map[cobra.BranchEdge]int64 {
	edges := map[cobra.BranchEdge]int64{}
	for pc := region.Start; pc <= region.End && pc < img.Len(); pc++ {
		in := img.Fetch(pc)
		if !in.IsBranch() || in.Br == ia64.BrRet {
			continue
		}
		t := int(in.Imm)
		if t < region.Start || t > region.End {
			continue
		}
		w := 1 + int64(mix64(uint64(seed)^uint64(pc)*0x9e3779b97f4a7c15)%13)
		edges[cobra.BranchEdge{From: pc, To: t}] += w
	}
	return edges
}

// armPatch registers one timer per step of plan's schedule, in order,
// so steps due at the same cycle fire in schedule order. A deploy the
// patcher declines (triagePatchErr) leaves the run unpatched and every
// later step a no-op; any other failure is recorded in *deployErr.
func armPatch(env *runEnv, p *Program, plan *patchPlan, out *runOutcome, deployErr *error) {
	mp := modePlans[plan.mode]
	patcher := cobra.NewPatcher(env.img, mp.trace)
	target := p.PatchTarget()
	if mp.layout {
		target = p.LayoutTarget()
	}
	region := cobra.Region{
		Key:      cobra.LoopKey{Head: target.Head, BranchPC: target.BranchPC},
		Start:    target.Head,
		End:      target.BranchPC,
		FuncName: "fuzz.kernel",
	}
	var vs *cobra.VariantSet
	for _, st := range mp.steps {
		env.m.AddTimer(&machine.Timer{NextAt: plan.at[st.at], Fn: func(now int64) int64 {
			if st.at == atDeploy {
				set, err := patcher.DeployVariants(region, mp.specs(env, p, region, target))
				if err == nil {
					err = patcher.Switch(set, st.variant)
				}
				if err != nil {
					*deployErr = triagePatchErr(err)
					return 0
				}
				vs = set
				out.deployed = true
			} else if vs != nil {
				if err := patcher.Switch(vs, st.variant); err != nil && *deployErr == nil {
					*deployErr = err
				}
			}
			return 0
		}})
	}
}

// specs builds the mode's variant table for region at deploy time. A
// layout copy is ordered hot-path-first by the synthetic edge profile.
// Reordered execution must stay architecturally bit-identical;
// connectors retire extra branches, so layout modes are judged on
// state, never on instruction counts.
func (mp modePlan) specs(env *runEnv, p *Program, region cobra.Region, target Loop) []cobra.VariantSpec {
	if mp.layout {
		an := cobra.NewAnalyzer(env.img, env.m.Memory())
		spec := an.BuildLayout(region, syntheticEdges(env.img, region, p.Cfg.Seed))
		if !spec.PlacesBefore(region.Key.Head, region.Key.BranchPC) {
			// The synthetic profile asked for a forward latch; the engine
			// would refuse such an order, so fall back to the identity
			// placement — still a full emit + relocate + dispatch exercise.
			for i := range spec.Order {
				spec.Order[i] = i
			}
		}
		return []cobra.VariantSpec{{Rewrite: cobra.RewriteLayout, Layout: &spec}}
	}
	var specs []cobra.VariantSpec
	for _, rw := range mp.rewrites {
		specs = append(specs, cobra.VariantSpec{Rewrite: rw, Slots: target.Lfetches})
	}
	return specs
}

// runProgram executes p on a fresh machine, optionally live-patching it
// mid-run per plan, and snapshots the final architectural state.
func runProgram(p *Program, plan *patchPlan) (*runOutcome, error) {
	return runScenario(p, plan, nil)
}

func runScenario(p *Program, plan *patchPlan, sc *numaScenario) (*runOutcome, error) {
	env, err := setupRun(p, sc)
	if err != nil {
		return nil, err
	}
	m := env.m

	out := &runOutcome{}
	var deployErr error
	if plan != nil {
		armPatch(env, p, plan, out, &deployErr)
	}

	if err := env.run(p); err != nil {
		return nil, err
	}
	if deployErr != nil {
		return nil, fmt.Errorf("live patch (%v): %w", plan.mode, deployErr)
	}

	out.state = snapshotState(m)
	out.totalCycles = m.GlobalCycle()
	out.parallelCycles = env.rt.Stats()[0].Cycles
	for _, s := range env.rt.Stats() {
		out.retired += s.Retired
	}
	out.invariantChecks = m.Domain().InvariantChecks()
	out.invariantViolations = m.Domain().InvariantViolations()
	return out, nil
}

// ModeResult is the differential verdict of one patched run against the
// baseline.
type ModeResult struct {
	Mode       string
	Cycles     int64
	Deployed   bool
	Mismatches []string // empty = bit-identical to baseline
}

// SeedReport is the full verification record of one generated program.
type SeedReport struct {
	Seed           int64
	Err            string // generation or execution failure ("" = ran)
	BaselineCycles int64
	Retired        int64

	// InvariantChecks counts online MESI checks across all runs — the
	// harness rejects a "clean" report whose checker never ran.
	InvariantChecks     int64
	InvariantViolations []string

	Modes  []ModeResult
	Faults []FaultResult
}

// Failed reports whether anything about the seed's verification went
// wrong: an execution error, an architectural mismatch, an invariant
// violation, a fault run that didn't degrade gracefully — or a run whose
// invariant checker silently never executed.
func (r *SeedReport) Failed() bool {
	if r.Err != "" || len(r.InvariantViolations) > 0 || r.InvariantChecks == 0 {
		return true
	}
	for _, m := range r.Modes {
		if len(m.Mismatches) > 0 || !m.Deployed {
			return true
		}
	}
	for _, f := range r.Faults {
		if f.Failed() {
			return true
		}
	}
	return false
}

// Problems renders every failure of the report as one line each.
func (r *SeedReport) Problems() []string {
	var out []string
	if r.Err != "" {
		out = append(out, "run error: "+r.Err)
	}
	if r.Err == "" && r.InvariantChecks == 0 {
		out = append(out, "invariant checker never ran")
	}
	for _, v := range r.InvariantViolations {
		out = append(out, "invariant: "+v)
	}
	for _, m := range r.Modes {
		if !m.Deployed {
			out = append(out, m.Mode+": patch never deployed")
		}
		for _, d := range m.Mismatches {
			out = append(out, m.Mode+": "+d)
		}
	}
	for _, f := range r.Faults {
		out = append(out, f.Problems()...)
	}
	return out
}

// diffLimit caps mismatch details recorded per mode.
const diffLimit = 16

// VerifySeed generates the program for cfg and runs the full differential
// battery: one baseline, one patched run per mode (deploying mid-parallel
// region, at half the baseline's region duration), and — when faults is
// non-empty — the control-loop fault-injection runs, each fault under
// every FaultControls configuration. All runs carry the online MESI
// invariant checker.
func VerifySeed(cfg GenConfig, modes []Mode, faults []FaultKind) SeedReport {
	rep := SeedReport{Seed: cfg.Seed}
	p, err := Generate(cfg)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	base, err := runProgram(p, nil)
	if err != nil {
		rep.Err = "baseline: " + err.Error()
		return rep
	}
	rep.BaselineCycles = base.totalCycles
	rep.Retired = base.retired
	rep.InvariantChecks = base.invariantChecks
	rep.InvariantViolations = append(rep.InvariantViolations, base.invariantViolations...)

	deployAt := base.parallelCycles / 2
	if deployAt < 1 {
		deployAt = 1
	}
	rollbackAt := deployAt + (base.parallelCycles-deployAt)/2
	if rollbackAt <= deployAt {
		rollbackAt = deployAt + 1
	}
	switchAt := deployAt + (rollbackAt-deployAt)/2
	if switchAt <= deployAt {
		switchAt = deployAt + 1
	}
	for _, mode := range modes {
		if mode == ModePlacement {
			// Not a patch mode: the unpatched program runs on an asymmetric
			// NUMA topology under every placement policy. Placement moves
			// page homes — timing and hop counts — never values, and the
			// generated programs are race-free, so each run's architectural
			// state must be bit-identical to the SMP baseline's (cycle
			// counts legitimately differ across machine models).
			for _, pol := range []mem.PlacementPolicy{mem.PlaceFirstTouch, mem.PlaceInterleave, mem.PlaceBind} {
				sc := &numaScenario{placement: pol}
				if pol == mem.PlaceBind {
					sc.bindNode = len(scenarioNodes(p.Cfg.Threads)) - 1
				}
				run, err := runScenario(p, nil, sc)
				if err != nil {
					rep.Err = fmt.Sprintf("placement-%s: %s", policyLabel(pol), err)
					return rep
				}
				rep.InvariantChecks += run.invariantChecks
				rep.InvariantViolations = append(rep.InvariantViolations, run.invariantViolations...)
				rep.Modes = append(rep.Modes, ModeResult{
					Mode:       "placement-" + policyLabel(pol),
					Cycles:     run.totalCycles,
					Deployed:   true, // nothing to deploy; satisfies the battery's check
					Mismatches: diffStates(base.state, run.state, diffLimit),
				})
			}
			continue
		}
		var sc *numaScenario
		depAt, swAt, rbAt := deployAt, switchAt, rollbackAt
		if mode == ModeMigration {
			// An in-place nop deploy followed by a mid-region CPU-to-node
			// remap while the patch plane is active. State must still match
			// the SMP baseline bit for bit. Deadlines cannot come from the
			// SMP cycle counts — both the topology and the patch change
			// timing enough that a borrowed deadline can land after the
			// run ends (seed 868: migrating the lone node-0 CPU made every
			// coherent miss intra-node and halved the run). Instead each
			// deadline is taken from a pre-run that is timeline-identical
			// up to the moment it fires: the deploy deadline from an
			// unpatched run on the same topology, the migration deadline
			// from a patched-but-unmigrated run.
			pre, err := runScenario(p, nil, &numaScenario{placement: mem.PlaceFirstTouch})
			if err != nil {
				rep.Err = "migration-baseline: " + err.Error()
				return rep
			}
			rep.InvariantChecks += pre.invariantChecks
			rep.InvariantViolations = append(rep.InvariantViolations, pre.invariantViolations...)
			depAt = pre.parallelCycles / 2
			if depAt < 1 {
				depAt = 1
			}
			swAt, rbAt = depAt+1, depAt+2
			patched, err := runScenario(p, &patchPlan{mode: mode, at: [3]int64{depAt, swAt, rbAt}},
				&numaScenario{placement: mem.PlaceFirstTouch})
			if err != nil {
				rep.Err = "migration-patched-baseline: " + err.Error()
				return rep
			}
			rep.InvariantChecks += patched.invariantChecks
			rep.InvariantViolations = append(rep.InvariantViolations, patched.invariantViolations...)
			migrateAt := depAt + (patched.parallelCycles-depAt)/2
			if migrateAt <= depAt {
				migrateAt = depAt + 1
			}
			sc = &numaScenario{
				placement: mem.PlaceFirstTouch,
				migrations: []machine.Migration{
					{AtCycle: migrateAt, CPU: 0, Node: len(scenarioNodes(p.Cfg.Threads)) - 1},
				},
			}
		}
		run, err := runScenario(p, &patchPlan{mode: mode, at: [3]int64{depAt, swAt, rbAt}}, sc)
		if err != nil {
			rep.Err = mode.String() + ": " + err.Error()
			return rep
		}
		rep.InvariantChecks += run.invariantChecks
		rep.InvariantViolations = append(rep.InvariantViolations, run.invariantViolations...)
		rep.Modes = append(rep.Modes, ModeResult{
			Mode:       mode.String(),
			Cycles:     run.totalCycles,
			Deployed:   run.deployed,
			Mismatches: diffStates(base.state, run.state, diffLimit),
		})
	}
	for _, ctl := range FaultControls() {
		for _, kind := range faults {
			rep.Faults = append(rep.Faults, RunFault(p, base.state, kind, ctl))
		}
	}
	return rep
}
