// Package experiment assembles the paper's experiments: each public
// function regenerates the data behind one table or figure of the
// evaluation (§5), returning structured rows the report package renders in
// the paper's format.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/cobra"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Options configure how a sweep executes on the internal/sched worker
// pool. The zero value runs with GOMAXPROCS workers, no persistent
// ledger, no progress hooks, and a private build cache — and, because
// every cell is an independent deterministic simulation, produces output
// bit-identical to a serial run.
type Options struct {
	// Jobs is the worker-pool size; <= 0 means GOMAXPROCS.
	Jobs int
	// Ledger, when non-nil, skips cells whose content hash is already
	// recorded and reuses the recorded measurement (-incremental mode).
	Ledger *sched.Ledger
	// Hooks observe per-cell progress and timing.
	Hooks sched.Hooks
	// Cache is the compiled-binary artifact cache. Nil uses a cache
	// private to the call; pass a shared one to reuse compiles across
	// sweeps in one process.
	Cache *workload.BuildCache
	// ArtifactDir, when non-empty, attaches a per-cell observer (trace,
	// metrics, decision log) to every executed measurement job and dumps
	// its artifacts there, file names keyed by the cell's content hash so
	// they line up with run-ledger entries (see measureJob). Cached cells
	// write nothing — their artifacts are from the run that recorded them.
	ArtifactDir string
}

func (o Options) schedOptions() sched.Options {
	return sched.Options{Workers: o.Jobs, Ledger: o.Ledger, Hooks: o.Hooks}
}

func (o Options) buildCache() *workload.BuildCache {
	if o.Cache != nil {
		return o.Cache
	}
	return workload.NewBuildCache()
}

// MachineKind selects one of the paper's two platforms.
type MachineKind uint8

const (
	// SMP4 is the 4-processor Itanium 2 server (front-side bus, MESI).
	SMP4 MachineKind = iota
	// Altix8 is the SGI Altix cc-NUMA system, 8 processors in 2-CPU nodes.
	Altix8
)

func (m MachineKind) String() string {
	if m == SMP4 {
		return "4-way SMP"
	}
	return "SGI Altix cc-NUMA"
}

// Threads returns the thread count the paper uses on each platform.
func (m MachineKind) Threads() int {
	if m == SMP4 {
		return 4
	}
	return 8
}

// Config builds the workload.BuildConfig for the platform.
func (m MachineKind) config() workload.BuildConfig {
	if m == SMP4 {
		return workload.SMPConfig(m.Threads())
	}
	return workload.NUMAConfig(m.Threads())
}

// Strategy labels the three prefetch strategies of §5.2.
type StrategyLabel string

const (
	Baseline   StrategyLabel = "prefetch"
	NoPrefetch StrategyLabel = "noprefetch"
	Excl       StrategyLabel = "prefetch.excl"
)

// Strategies is the reporting order of the paper's figures.
var Strategies = []StrategyLabel{Baseline, NoPrefetch, Excl}

// cobraFor returns the COBRA configuration implementing a strategy at run
// time on platform m (nil for the baseline, which runs unmonitored).
// cobra.ConfigFor places the DEAR coherent filter for m's memory system.
func cobraFor(s StrategyLabel, m MachineKind) *cobra.Config {
	var c cobra.Config
	switch s {
	case NoPrefetch:
		c = cobra.ConfigFor(cobra.StrategyNoprefetch, m.config().Machine.Mem)
	case Excl:
		c = cobra.ConfigFor(cobra.StrategyExcl, m.config().Machine.Mem)
	default:
		return nil
	}
	return &c
}

// ---- Figure 3: DAXPY kernel ----

// DaxpyCell is one bar of Figure 3: a (threads, variant) pair at one
// working-set size, normalized to the single-thread prefetch baseline of
// that size.
type DaxpyCell struct {
	WSBytes    int64
	Threads    int
	Variant    workload.Variant
	Cycles     int64
	Normalized float64 // vs the 1-thread prefetch run at this working set
}

// DaxpyScale controls Figure 3's cost.
type DaxpyScale struct {
	WorkingSets []int64
	Threads     []int
	// RepsFor returns the outer repetition count for a working set.
	RepsFor func(ws int64) int
}

// DefaultDaxpyScale reproduces Figure 3's sweep (repetitions scaled down
// from the paper's 10^6; all reported numbers are ratios).
func DefaultDaxpyScale() DaxpyScale {
	return DaxpyScale{
		WorkingSets: []int64{128 << 10, 512 << 10, 2 << 20},
		Threads:     []int{1, 2, 4},
		RepsFor: func(ws int64) int {
			if ws >= 2<<20 {
				return 12
			}
			return 120
		},
	}
}

// QuickDaxpyScale is a cheap variant for tests.
func QuickDaxpyScale() DaxpyScale {
	return DaxpyScale{
		WorkingSets: []int64{128 << 10},
		Threads:     []int{1, 2},
		RepsFor:     func(int64) int { return 24 },
	}
}

// measureJob builds the scheduler job measuring one cell: build makes the
// cell's instance from its build config, and Run measures it. With an
// artifact dir, the executed cell creates its own observer (never shared
// across concurrent jobs), attaches it to the build, and writes its
// trace, metrics and decision log under its content-hash key before the
// job resolves. A write failure fails the cell as "artifacts: …", so it
// is never ledgered; a ledger hit never runs, so it writes nothing.
func measureJob(key, name string, bc workload.BuildConfig, dir string, build func(workload.BuildConfig) (*workload.Instance, error)) sched.Job[workload.Measurement] {
	return sched.Job[workload.Measurement]{
		Key:  key,
		Name: name,
		Run: func(context.Context) (workload.Measurement, error) {
			cfg := bc
			if dir != "" {
				cfg.Obs = obs.New(obs.Config{Trace: true, Metrics: true, Decisions: true})
			}
			inst, err := build(cfg)
			if err != nil {
				return workload.Measurement{}, err
			}
			m, err := inst.Measure()
			if err != nil || dir == "" {
				return m, err
			}
			if err := obs.WriteArtifacts(dir, key, cfg.Obs); err != nil {
				return workload.Measurement{}, fmt.Errorf("artifacts: %w", err)
			}
			return m, nil
		},
	}
}

// daxpyJob builds the scheduler job measuring one Figure 3 cell. The key
// hashes the full cell identity (kernel parameters, variant, machine and
// compiler config), so equal cells dedup within a sweep — the 1-thread
// prefetch normalization anchor and the (1, prefetch) bar are one job —
// and ledger entries survive exactly as long as the configuration is
// unchanged.
func daxpyJob(cache *workload.BuildCache, ws int64, threads, reps int, v workload.Variant, dir string) sched.Job[workload.Measurement] {
	p := workload.DaxpyParams{WorkingSetBytes: ws, OuterReps: reps}
	bc := workload.SMPConfig(threads)
	key := sched.KeyOf("daxpy-cell", p, int(v), bc)
	name := fmt.Sprintf("daxpy/ws=%dK/t=%d/%s", ws>>10, threads, v)
	return measureJob(key, name, bc, dir, func(bc workload.BuildConfig) (*workload.Instance, error) {
		inst, err := cache.Build(sched.KeyOf("daxpy", p), workload.Daxpy(p), bc)
		if err != nil {
			return nil, err
		}
		_, err = workload.ApplyVariant(inst, v)
		return inst, err
	})
}

// Figure3Sched regenerates Figure 3(a) (prefetch vs noprefetch) or 3(b)
// (prefetch vs prefetch.excl): normalized DAXPY execution time across
// working sets and thread counts on the 4-way SMP. The variants are
// produced by static binary rewriting of the compiled prefetch binary, as
// in the paper. Every (working set, threads, variant) cell is an
// independent scheduler job; the per-working-set normalization anchors
// are folded into the same run by key dedup.
func Figure3Sched(panel byte, scale DaxpyScale, opt Options) ([]DaxpyCell, error) {
	var alt workload.Variant
	switch panel {
	case 'a':
		alt = workload.VariantNoPrefetch
	case 'b':
		alt = workload.VariantExcl
	default:
		return nil, fmt.Errorf("experiment: figure 3 panel %q", panel)
	}
	cache := opt.buildCache()
	// Job layout per working set: the 1-thread prefetch anchor first, then
	// the cells in reporting order (scheduling order does not affect the
	// output — results come back indexed).
	var jobs []sched.Job[workload.Measurement]
	for _, ws := range scale.WorkingSets {
		reps := scale.RepsFor(ws)
		jobs = append(jobs, daxpyJob(cache, ws, 1, reps, workload.VariantPrefetch, opt.ArtifactDir))
		for _, th := range scale.Threads {
			for _, v := range []workload.Variant{workload.VariantPrefetch, alt} {
				jobs = append(jobs, daxpyJob(cache, ws, th, reps, v, opt.ArtifactDir))
			}
		}
	}
	results := sched.Run(jobs, opt.schedOptions())
	if err := sched.FirstErr(results); err != nil {
		return nil, err
	}
	var cells []DaxpyCell
	i := 0
	for _, ws := range scale.WorkingSets {
		base1 := results[i].Value
		i++
		for _, th := range scale.Threads {
			for _, v := range []workload.Variant{workload.VariantPrefetch, alt} {
				m := results[i].Value
				i++
				// Guard the normalization: a degenerate zero-cycle baseline
				// must report 0, not divide into NaN/Inf that poisons the
				// emitted table.
				norm := 0.0
				if base1.Cycles != 0 {
					norm = float64(m.Cycles) / float64(base1.Cycles)
				}
				cells = append(cells, DaxpyCell{
					WSBytes: ws, Threads: th, Variant: v, Cycles: m.Cycles,
					Normalized: norm,
				})
			}
		}
	}
	return cells, nil
}

// ---- Table 1: static counts ----

// Table1Row is one row of Table 1: static instruction statistics of a
// compiled NPB binary.
type Table1Row struct {
	Bench   string
	Lfetch  int
	BrCtop  int
	BrCloop int
	BrWtop  int
}

// Table1Sched compiles every NPB benchmark and counts the prefetches and
// loop branches in the generated binaries, one scheduler job per
// benchmark.
func Table1Sched(class npb.Class, opt Options) ([]Table1Row, error) {
	cache := opt.buildCache()
	p := npb.Params{Class: class}
	bc := workload.SMPConfig(1)
	var jobs []sched.Job[Table1Row]
	for _, name := range npb.Names {
		jobs = append(jobs, sched.Job[Table1Row]{
			Key:  sched.KeyOf("table1", name, p, bc),
			Name: fmt.Sprintf("table1/%s.%s", name, class),
			Run: func(context.Context) (Table1Row, error) {
				w, err := npb.Build(name, p)
				if err != nil {
					return Table1Row{}, err
				}
				inst, err := cache.Build(sched.KeyOf("npb", name, p), w, bc)
				if err != nil {
					return Table1Row{}, err
				}
				c := inst.Ctx.Res.StaticCounts(inst.Ctx.M.Image())
				return Table1Row{
					Bench: name, Lfetch: c.Lfetch,
					BrCtop: c.BrCtop, BrCloop: c.BrCloop, BrWtop: c.BrWtop,
				}, nil
			},
		})
	}
	results := sched.Run(jobs, opt.schedOptions())
	if err := sched.FirstErr(results); err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(results))
	for i, r := range results {
		rows[i] = r.Value
	}
	return rows, nil
}

// ---- Figures 5, 6, 7: NPB under COBRA ----

// NPBCell is one benchmark × strategy measurement.
type NPBCell struct {
	Bench    string
	Strategy StrategyLabel
	workload.Measurement
}

// NPBResult is a full platform sweep: the data behind Figures 5(x), 6(x)
// and 7(x) for one machine.
type NPBResult struct {
	Machine MachineKind
	Threads int
	Cells   []NPBCell
}

// npbJob builds the scheduler job measuring one (benchmark, strategy)
// cell. The build config carries the full machine, compiler and COBRA
// configuration, so the content hash changes with any of them. The three
// strategies of one benchmark share a compiled artifact through the build
// cache: COBRA attaches at run time and never alters the compile.
func npbJob(cache *workload.BuildCache, machine MachineKind, class npb.Class, name string, s StrategyLabel, dir string) sched.Job[workload.Measurement] {
	p := npb.Params{Class: class}
	bc := machine.config()
	bc.Cobra = cobraFor(s, machine)
	key := sched.KeyOf("npb-cell", name, p, bc)
	label := fmt.Sprintf("%s/%s.%s/%s", machineShort(machine), name, class, s)
	return measureJob(key, label, bc, dir, func(bc workload.BuildConfig) (*workload.Instance, error) {
		w, err := npb.Build(name, p)
		if err != nil {
			return nil, err
		}
		return cache.Build(sched.KeyOf("npb", name, p), w, bc)
	})
}

func machineShort(m MachineKind) string {
	if m == SMP4 {
		return "smp"
	}
	return "numa"
}

// RunNPBSched measures every result benchmark under the three strategies
// on a platform. The baseline runs without COBRA; noprefetch and
// prefetch.excl run under COBRA with the corresponding strategy, so the
// reported numbers include all monitoring and optimization overhead, as
// in the paper. One scheduler job per (benchmark, strategy) cell; results
// assemble in the paper's reporting order regardless of completion order.
func RunNPBSched(machine MachineKind, class npb.Class, benches []string, opt Options) (*NPBResult, error) {
	if benches == nil {
		benches = npb.ResultNames
	}
	cache := opt.buildCache()
	var jobs []sched.Job[workload.Measurement]
	for _, name := range benches {
		for _, s := range Strategies {
			jobs = append(jobs, npbJob(cache, machine, class, name, s, opt.ArtifactDir))
		}
	}
	results := sched.Run(jobs, opt.schedOptions())
	res := &NPBResult{Machine: machine, Threads: machine.Threads()}
	i := 0
	for _, name := range benches {
		for _, s := range Strategies {
			r := results[i]
			i++
			if r.Err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, s, r.Err)
			}
			res.Cells = append(res.Cells, NPBCell{Bench: name, Strategy: s, Measurement: r.Value})
		}
	}
	return res, nil
}

// Cell returns the measurement for (bench, strategy).
func (r *NPBResult) Cell(bench string, s StrategyLabel) (NPBCell, bool) {
	for _, c := range r.Cells {
		if c.Bench == bench && c.Strategy == s {
			return c, true
		}
	}
	return NPBCell{}, false
}

// Benches lists the benchmarks present, in insertion order.
func (r *NPBResult) Benches() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Bench] {
			seen[c.Bench] = true
			out = append(out, c.Bench)
		}
	}
	return out
}

// Speedup returns execution-time speedup of strategy s over the baseline
// for bench (Figure 5's metric: > 1 is faster).
func (r *NPBResult) Speedup(bench string, s StrategyLabel) float64 {
	base, ok1 := r.Cell(bench, Baseline)
	c, ok2 := r.Cell(bench, s)
	if !ok1 || !ok2 || c.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(c.Cycles)
}

// NormL3 returns strategy s's L3 misses normalized to baseline (Figure 6).
func (r *NPBResult) NormL3(bench string, s StrategyLabel) float64 {
	base, ok1 := r.Cell(bench, Baseline)
	c, ok2 := r.Cell(bench, s)
	if !ok1 || !ok2 || base.Mem.L3Misses == 0 {
		return 0
	}
	return float64(c.Mem.L3Misses) / float64(base.Mem.L3Misses)
}

// NormBus returns strategy s's system memory transactions normalized to
// baseline (Figure 7).
func (r *NPBResult) NormBus(bench string, s StrategyLabel) float64 {
	base, ok1 := r.Cell(bench, Baseline)
	c, ok2 := r.Cell(bench, s)
	if !ok1 || !ok2 || base.Mem.BusMemory == 0 {
		return 0
	}
	return float64(c.Mem.BusMemory) / float64(base.Mem.BusMemory)
}

// Average returns the arithmetic mean of metric over the benchmarks (the
// "avg" bar of each figure).
func (r *NPBResult) Average(metric func(bench string, s StrategyLabel) float64, s StrategyLabel) float64 {
	benches := r.Benches()
	if len(benches) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range benches {
		sum += metric(b, s)
	}
	return sum / float64(len(benches))
}
