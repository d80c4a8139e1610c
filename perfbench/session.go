package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cobra"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// nominalRound is one round of the seven sessions on the 2-core
// reference host; --seconds buys max(1, seconds/nominalRound) rounds.
const nominalRound = 30 * time.Second

// sessionDef is one cobra-run-style session of the adaptive-session
// workload.
type sessionDef struct {
	name     string
	chase    bool // pointerchase on the 1+3 interleaved NUMA topology; else phased DAXPY on the SMP
	strategy string
}

// sessionDefs is one round: phased DAXPY under every registered engine
// and its off baseline, then pointerchase under adaptive and off.
var sessionDefs = []sessionDef{
	{"phased/off", false, "off"},
	{"phased/adaptive", false, "adaptive"},
	{"phased/multiversion", false, "multiversion"},
	{"phased/causal", false, "causal"},
	{"phased/layout", false, "layout"},
	{"chase/off", true, "off"},
	{"chase/adaptive", true, "adaptive"},
}

// repeatSession is re-run after the timed phase to check that a
// session's simulated cycles and decisions repeat exactly.
const repeatSession = "chase/adaptive"

// sessions is the adaptive-session workload: one session at a time with
// every observability surface on (trace, metrics, decisions, events).
// The seed is pointerchase's shuffle seed.
type sessions struct {
	o     options
	chase workload.PointerChaseParams
	cache *workload.BuildCache
}

// sessionRec is one executed session.
type sessionRec struct {
	def        sessionDef
	err        error
	wall       time.Duration // instantiate, run, verify, write artifacts
	build      time.Duration // instantiate (build-cache clone or compile)
	phases     *phaseTimes
	write      time.Duration
	meas       workload.Measurement
	sim        simTotals
	violations []string
	traceLen   int
	traceDrop  int64
	decisions  int
	busEvents  int64
	artifacts  []string // files written
}

// sessionPass is one timed phase of the workload.
type sessionPass struct {
	recs      []*sessionRec
	dir       string
	cacheHits int64
	cacheMiss int64
}

func newSessions(o options) bench { return &sessions{o: o} }

// chaseReps repeats the pointerchase region four times its default, so a
// pointerchase session lasts about as long as a phased one: with seven
// sessions of one length, the median is the middle session rather than
// whichever phased session ran during the host's fastest seconds.
const chaseReps = 24

func (s *sessions) setup() error {
	s.chase = workload.PointerChaseParams{Seed: s.o.seed, Reps: chaseReps}.WithDefaults()
	s.cache = workload.NewBuildCache()
	return nil
}

func (s *sessions) teardown() {}

func (s *sessions) timed(tr *tracer) (*pass, error) {
	dir, err := os.MkdirTemp(s.o.out, "sessions-")
	if err != nil {
		return nil, err
	}
	rounds := max(1, int(time.Duration(s.o.seconds)*time.Second/nominalRound))
	sp := &sessionPass{dir: dir}
	p := &pass{detail: sp}
	t0 := time.Now()
	for round := 0; round < rounds; round++ {
		for i, def := range sessionDefs {
			rec := s.run(def, filepath.Join(dir, fmt.Sprintf("r%d-%d", round, i)), tr, i+1)
			sp.recs = append(sp.recs, rec)
			p.ops = append(p.ops, rec.wall.Seconds())
			p.attempted++
		}
	}
	p.wall = time.Since(t0)
	sp.cacheHits, sp.cacheMiss = s.cache.Stats()
	return p, nil
}

// instantiate builds one session's instance with observer o attached.
// Phased DAXPY goes through serve.Spec, as cobra-run builds it; the
// seeded pointerchase is built from its parameters, which a Spec cannot
// carry.
func (s *sessions) instantiate(def sessionDef, o *obs.Observer) (*workload.Instance, error) {
	if !def.chase {
		spec := serve.Spec{Workload: "phased", Strategy: def.strategy}
		spec.Normalize()
		return spec.Instantiate(s.cache, o)
	}
	bc := workload.NUMANodesConfig(4, []mem.NodeConfig{{CPUs: 1}, {CPUs: 3}})
	bc.Machine.Mem.Placement = mem.PlaceInterleave
	if def.strategy == "adaptive" {
		c := cobra.DefaultConfig(cobra.StrategyAdaptive)
		bc.Cobra = &c
	}
	bc.Obs = o
	return s.cache.Build(sched.KeyOf("pointerchase", s.chase), workload.PointerChase(s.chase), bc)
}

// run executes one session: instantiate, Setup, Run, Verify (through
// Instance.Measure), then write the artifacts.
func (s *sessions) run(def sessionDef, prefix string, tr *tracer, lane int) *sessionRec {
	rec := &sessionRec{def: def}
	t0 := time.Now()
	root := tr.begin("session", def.name, lane, 0)
	defer tr.end(root)
	o := obs.New(obs.Config{Trace: true, Metrics: true, Decisions: true, Events: true})
	sub, err := o.Bus().Subscribe(0, 0)
	if err != nil {
		rec.err = err
		return rec
	}
	drained := make(chan int64, 1)
	go func() {
		var n int64
		for {
			if _, err := sub.Next(context.Background()); err != nil {
				break
			}
			n++
		}
		drained <- n
	}()
	defer sub.Close()
	// The bus must close on every path so the drain goroutine ends.
	closeBus := func() {
		o.Bus().Close()
		rec.busEvents = <-drained
	}

	id := tr.begin("Spec.Instantiate", def.name, lane, root)
	inst, err := s.instantiate(def, o)
	rec.build = time.Since(t0)
	tr.end(id)
	if err != nil {
		closeBus()
		rec.err = err
		return rec
	}
	rec.phases = instrument(inst, tr, def.name, lane, root)
	rec.meas, rec.err = inst.Measure()
	closeBus()
	if rec.err != nil {
		return rec
	}

	id = tr.begin("write_artifacts", def.name, lane, root)
	tw := time.Now()
	rec.err = obs.WriteArtifacts(filepath.Dir(prefix), filepath.Base(prefix), o)
	rec.write = time.Since(tw)
	tr.end(id)
	rec.wall = time.Since(t0)

	rec.sim.add(rec.meas)
	rec.sim.addInstance(inst)
	rec.traceLen, rec.traceDrop = o.Trace().Len(), o.Trace().Dropped()
	rec.decisions = len(o.Decisions().Decisions())
	for _, ext := range []string{".trace.json", ".metrics.json", ".decisions.txt"} {
		rec.artifacts = append(rec.artifacts, prefix+ext)
	}
	id = tr.begin("DecisionLog.Violations", def.name, lane, root)
	rec.violations = o.Decisions().Violations()
	tr.end(id)
	return rec
}

func (s *sessions) check(passes []*pass, r *result) {
	// The repeat: the same session again, untimed, must give the same
	// cycles and the same decisions report.
	ref := s.run(sessionDefOf(repeatSession), filepath.Join(s.o.out, "repeat"), nil, 0)
	refDecisions, refErr := os.ReadFile(filepath.Join(s.o.out, "repeat.decisions.txt"))
	if ref.err != nil || refErr != nil {
		r.fail("repeat of %s: %v %v", repeatSession, ref.err, refErr)
	}
	for _, ext := range []string{".trace.json", ".metrics.json", ".decisions.txt"} {
		os.Remove(filepath.Join(s.o.out, "repeat"+ext))
	}

	var last *sessionPass
	for _, p := range passes {
		sp := p.detail.(*sessionPass)
		last = sp
		for _, rec := range sp.recs {
			if err := checkSession(rec); err != nil {
				p.fail("%s: %v", rec.def.name, err)
				continue
			}
			if rec.def.name != repeatSession || ref.err != nil {
				continue
			}
			got, err := os.ReadFile(rec.artifacts[2])
			if err != nil || rec.meas.Cycles != ref.meas.Cycles || !bytes.Equal(got, refDecisions) {
				p.fail("%s: repeat differs: cycles %d vs %d, decisions equal %v",
					rec.def.name, rec.meas.Cycles, ref.meas.Cycles, bytes.Equal(got, refDecisions))
			}
		}
	}
	s.layerMetrics(last, r)
	for _, p := range passes {
		os.RemoveAll(p.detail.(*sessionPass).dir)
	}
}

// checkSession verifies one session: it ran and verified, its decision
// log replays cleanly, and its trace and metrics artifacts parse.
func checkSession(rec *sessionRec) error {
	if rec.err != nil {
		return rec.err
	}
	if len(rec.violations) > 0 {
		return fmt.Errorf("decision log violations: %s", strings.Join(rec.violations, "; "))
	}
	for _, path := range rec.artifacts[:2] {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !json.Valid(data) {
			return fmt.Errorf("%s is not valid JSON", filepath.Base(path))
		}
	}
	return nil
}

func sessionDefOf(name string) sessionDef {
	for _, d := range sessionDefs {
		if d.name == name {
			return d
		}
	}
	panic("unknown session " + name)
}

// layerMetrics fills the per-layer metrics from one pass.
func (s *sessions) layerMetrics(sp *sessionPass, r *result) {
	var sim simTotals
	var phased, chase mem.CPUStats
	var run time.Duration
	var builds, setups, verifies, writes []float64
	var artifactBytes int64
	var speedups []float64
	baseCycles := map[bool]int64{}
	for _, rec := range sp.recs {
		if rec.err != nil {
			continue
		}
		sim.merge(rec.sim)
		if rec.def.chase {
			chase.Add(rec.meas.Mem)
		} else {
			phased.Add(rec.meas.Mem)
		}
		run += rec.phases.run
		builds = append(builds, ms(rec.build))
		setups = append(setups, ms(rec.phases.setup))
		verifies = append(verifies, ms(rec.phases.verify))
		writes = append(writes, ms(rec.write))
		r.layer["obs.trace_events"] += float64(rec.traceLen)
		r.layer["obs.trace_dropped"] += float64(rec.traceDrop)
		r.layer["obs.decisions"] += float64(rec.decisions)
		r.layer["obs.bus_events"] += float64(rec.busEvents)
		for _, path := range rec.artifacts {
			if fi, err := os.Stat(path); err == nil {
				artifactBytes += fi.Size()
			}
		}
		if rec.def.strategy == "off" {
			baseCycles[rec.def.chase] = rec.meas.Cycles
		}
	}
	for _, rec := range sp.recs {
		if rec.err == nil && rec.def.strategy != "off" && baseCycles[rec.def.chase] > 0 {
			speedups = append(speedups, float64(baseCycles[rec.def.chase])/float64(rec.meas.Cycles))
		}
	}
	sim.fill(r.layer)
	r.layer["machine.sim_mips"] = ratio(float64(sim.instr), run.Seconds()) / 1e6
	r.layer["machine.ns_per_instr"] = ratio(float64(run.Nanoseconds()), float64(sim.instr))
	r.layer["mem.hitm_per_kaccess_phased"] = hitmPerKAccess(phased)
	r.layer["mem.hitm_per_kaccess_chase"] = hitmPerKAccess(chase)
	r.layer["cobra.speedup"] = geomean(speedups)
	r.layer["obs.artifact_bytes"] = float64(artifactBytes)
	r.layer["obs.write_ms"] = median(writes)
	r.layer["workload.build_ms"] = median(builds)
	r.layer["workload.setup_ms"] = median(setups)
	r.layer["workload.verify_ms"] = median(verifies)
	r.layer["workload.cache_hit_ratio"] = ratio(float64(sp.cacheHits), float64(sp.cacheHits+sp.cacheMiss))
	r.samples["workload.build_ms"] = len(builds)
	times := map[string]float64{}
	for _, rec := range sp.recs {
		times[rec.def.name] = rec.wall.Seconds()
	}
	r.record["session_s"] = times
	r.record["model_validation"] = "unvalidated: no reference result exists for these sessions, so no error figure is given"
}
