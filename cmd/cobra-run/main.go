// Command cobra-run executes any workload of the suite on either machine
// model, optionally under a COBRA strategy, and prints the measured
// execution time, memory-system counters and COBRA activity — the generic
// entry point for exploring the framework.
//
// The flag set parses into an internal/serve Spec — the same session
// description the cobrad service accepts over HTTP — so a batch run and a
// served session of one configuration are the same job by construction:
// same content hash (shared run-ledger namespace), same build path, same
// byte-identical artifacts.
//
// The run goes through the internal/sched scheduler like the sweep
// commands: -incremental reuses a recorded measurement from the run
// ledger when the exact configuration (workload, parameters, machine,
// threads, strategy) was measured before, and -jobs is accepted for
// interface uniformity (a single run occupies one worker).
//
// Observability: -trace FILE writes a cycle-domain Chrome trace_event
// JSON (open in Perfetto / chrome://tracing), -metrics FILE dumps the
// metrics registry, and -explain prints the patch-decision audit report.
// All three record simulated cycles, never wall time, so repeated runs of
// one configuration produce byte-identical artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cobra-run: ")
	var (
		name     = flag.String("workload", "daxpy", "daxpy, phased, pointerchase, hashjoin, spmv, bt, sp, lu, ft, mg, cg, ep, is")
		threads  = flag.Int("threads", 4, "worker threads (= CPUs)")
		machine  = flag.String("machine", "smp", "smp (front-side bus) or numa (Altix-like)")
		strategy = flag.String("strategy", "off", "off, monitor, noprefetch, excl, adaptive, bias, multiversion, causal, layout")
		classS   = flag.Bool("class-s", true, "class-S-scaled sizes (false = tiny)")
		ws       = flag.Int64("daxpy-ws", 128<<10, "DAXPY working set bytes")
		reps     = flag.Int("daxpy-reps", 100, "DAXPY outer repetitions")

		topology  = flag.String("topology", "", `explicit NUMA node list "cpus[:mem_mb],..." (e.g. "2,4,2" or "4:128,4:128")`)
		placement = flag.String("placement", "", "page placement policy: first-touch (default), interleave, bind")
		bindNode  = flag.Int("bind-node", 0, "home node for -placement bind")
		affinity  = flag.String("affinity", "", `thread-to-CPU pinning "cpu,cpu,..." (one per thread; default identity)`)
		migrate   = flag.String("migrate", "", `mid-run CPU migration "cycle:cpu:node"`)
		patches   = flag.Bool("show-patches", false, "list the binary patches COBRA deployed")

		traceFile    = flag.String("trace", "", "write a cycle-domain Chrome trace_event JSON to FILE (Perfetto-loadable)")
		traceSamples = flag.Bool("trace-samples", false, "with -trace: one instant event per perfmon sample (dense)")
		metricsFile  = flag.String("metrics", "", "write the metrics registry dump (counters/gauges/histograms per window) to FILE")
		explain      = flag.Bool("explain", false, "print the patch-decision audit report (evidence for every deploy/keep/rollback)")

		jobs        = flag.Int("jobs", 0, "scheduler worker-pool size (0 = GOMAXPROCS)")
		incremental = flag.Bool("incremental", false, "reuse a recorded measurement from the run ledger")
		ledgerDir   = flag.String("ledger-dir", "results/ledger", "run ledger directory (with -incremental)")
		progress    = flag.Bool("progress", false, "print scheduler progress lines to stderr")
	)
	flag.Parse()

	spec := serve.Spec{
		Workload:  *name,
		Threads:   *threads,
		Machine:   *machine,
		Strategy:  *strategy,
		ClassS:    classS,
		DaxpyWS:   *ws,
		DaxpyReps: *reps,
		Placement: *placement,
		BindNode:  *bindNode,
	}
	if err := parseScenarioFlags(&spec, *topology, *affinity, *migrate); err != nil {
		log.Fatal(err)
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	key, err := spec.Key()
	if err != nil {
		log.Fatal(err)
	}

	// Observability: the observer is attached via BuildConfig.Obs, which is
	// excluded from the content hash (json:"-"), so tracing a configuration
	// neither invalidates nor forks its ledger entry.
	var observer *obs.Observer
	if *traceFile != "" || *metricsFile != "" || *explain {
		observer = obs.New(obs.Config{
			Trace:        *traceFile != "",
			SampleEvents: *traceSamples,
			Metrics:      *metricsFile != "",
			Decisions:    *explain,
		})
	}

	opt := sched.Options{Workers: *jobs, Logf: log.Printf}
	if *incremental {
		led, err := sched.OpenLedger(*ledgerDir)
		if err != nil {
			log.Fatal(err)
		}
		opt.Ledger = led
	}
	if *progress {
		opt.Hooks = sched.ConsoleHooks(os.Stderr)
	}

	// The workload is instantiated inside the job so a ledger hit skips all
	// construction; inst is captured for -show-patches (nil on a hit).
	var inst *workload.Instance
	job := sched.Job[workload.Measurement]{
		Key:  key,
		Name: spec.Name(),
		Run: func(context.Context) (workload.Measurement, error) {
			i, err := spec.Instantiate(nil, observer)
			if err != nil {
				return workload.Measurement{}, err
			}
			inst = i
			return i.Measure()
		},
	}
	results := sched.Run([]sched.Job[workload.Measurement]{job}, opt)
	if err := sched.FirstErr(results); err != nil {
		log.Fatal(err)
	}
	m := results[0].Value

	fmt.Printf("workload   %s (%d threads, %s, strategy=%s)\n", m.Name, m.Threads, spec.Machine, spec.Strategy)
	if results[0].Cached {
		fmt.Println("source     run ledger (recorded measurement; rerun without -incremental to re-execute)")
	}
	fmt.Printf("cycles     %d\n", m.Cycles)
	st := m.Mem
	fmt.Printf("memory     loads=%d stores=%d prefetches=%d (dropped %d)\n",
		st.Loads, st.Stores, st.Prefetches, st.PrefetchesDropped)
	fmt.Printf("caches     L2miss=%d L3miss=%d writebacks=%d\n", st.L2Misses, st.L3Misses, st.Writebacks)
	fmt.Printf("bus        transactions=%d rdHit=%d rdHitm=%d rdInvalHitm=%d upgrades=%d\n",
		st.BusMemory, st.BusRdHit, st.BusRdHitm, st.BusRdInvalAllHitm, st.BusUpgrades)
	fmt.Printf("coherence  ratio=%.4f demand-avg-latency=%.1f\n",
		st.CoherentRatio(), float64(st.DemandLatencyTotal)/float64(max64(st.DemandAccesses, 1)))
	if spec.Strategy != "off" {
		cs := m.Cobra
		fmt.Printf("cobra      samples=%d passes=%d triggers=%d patches=%d rollbacks=%d nopped=%d excl=%d biased=%d traces=%d\n",
			cs.SamplesSeen, cs.OptimizerPasses, cs.Triggers, cs.PatchesApplied,
			cs.PatchesRolledBack, cs.PrefetchesNopped, cs.PrefetchesExcl, cs.LoadsBiased, cs.TracesEmitted)
		if *patches {
			if inst == nil {
				fmt.Println("  (patch list unavailable for a ledger-cached run)")
			} else {
				for _, vs := range inst.Cobra.ActiveDeployments() {
					v := vs.ActiveVariant()
					fmt.Printf("  patch: region [%d,%d] in %s: %d prefetches -> %s (trace entry %d)\n",
						vs.Region.Start, vs.Region.End, vs.Region.FuncName,
						v.RewrittenPrefetches, v.Rewrite, v.TraceEntry)
				}
			}
		}
	}

	if observer != nil {
		if results[0].Cached {
			fmt.Println("observability artifacts unavailable for a ledger-cached run (rerun without -incremental)")
		} else {
			if *traceFile != "" {
				if err := observer.Trace().WriteFile(*traceFile); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("trace      %s (%d events, %d dropped; open in Perfetto)\n",
					*traceFile, observer.Trace().Len(), observer.Trace().Dropped())
			}
			if *metricsFile != "" {
				if err := observer.Metrics().WriteFile(*metricsFile); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("metrics    %s\n", *metricsFile)
			}
			if *explain {
				fmt.Println()
				if err := observer.Decisions().Explain(os.Stdout); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	os.Exit(0)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// parseScenarioFlags fills the scenario-matrix Spec fields from their
// compact flag syntaxes: -topology "cpus[:mem_mb],...", -affinity
// "cpu,cpu,...", -migrate "cycle:cpu:node". Range and consistency
// validation is Spec.Validate's job; this only parses.
func parseScenarioFlags(spec *serve.Spec, topology, affinity, migrate string) error {
	if topology != "" {
		for _, field := range strings.Split(topology, ",") {
			var n serve.NodeSpec
			cpus, memMB, hasMem := strings.Cut(field, ":")
			c, err := strconv.Atoi(strings.TrimSpace(cpus))
			if err != nil {
				return fmt.Errorf("-topology node %q: %v", field, err)
			}
			n.CPUs = c
			if hasMem {
				mb, err := strconv.ParseInt(strings.TrimSpace(memMB), 10, 64)
				if err != nil {
					return fmt.Errorf("-topology node %q: %v", field, err)
				}
				n.MemMB = mb
			}
			spec.Topology = append(spec.Topology, n)
		}
	}
	if affinity != "" {
		for _, field := range strings.Split(affinity, ",") {
			cpu, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				return fmt.Errorf("-affinity entry %q: %v", field, err)
			}
			spec.Affinity = append(spec.Affinity, cpu)
		}
	}
	if migrate != "" {
		parts := strings.Split(migrate, ":")
		if len(parts) != 3 {
			return fmt.Errorf(`-migrate %q: want "cycle:cpu:node"`, migrate)
		}
		at, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		cpu, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		node, err3 := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf(`-migrate %q: want "cycle:cpu:node"`, migrate)
		}
		spec.MigrateAt, spec.MigrateCPU, spec.MigrateNode = at, cpu, node
	}
	return nil
}
