// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed against the simulator stack, checks the
// outputs, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload npb-sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the timed phase twice, untraced and then traced (host-time spans
// plus a CPU profile), and prints the per-layer metrics. README.md lists
// the workloads, the metric definitions and the prediction each
// per-layer metric carries.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// options are the command-line inputs of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for ledgers, artifacts, traces, profiles
	probe    bool   // internal: run set-up only, for the setup_s probes
}

// bench is one workload. A pass is setup → timed → teardown; check runs
// after every pass, outside the timed phase, and folds the output checks
// and the simulated counts into the result.
type bench interface {
	// setup generates the inputs from the seed and brings up what the
	// timed phase needs. It is what setup_s measures.
	setup() error
	// timed runs the timed phase. tr is nil on an untraced pass.
	timed(tr *tracer) (*pass, error)
	teardown()
	// check verifies every pass and fills r's failures and per-layer
	// values (the traced pass's when there is one, else the first).
	check(passes []*pass, r *result)
}

var workloads = map[string]func(o options) bench{
	"npb-sweep":        newSweep,
	"adaptive-session": newSessions,
	"serve-mix":        newServeMix,
}

// setupProbes is how many fresh processes time set-up; setup_s is their
// median. A probe that takes longer than probeTimeout is killed.
const (
	setupProbes  = 9
	probeTimeout = time.Minute
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: npb-sweep, adaptive-session or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase; sets the amount of work")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs a traced pass after the untraced one and prints per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for run outputs")
	fs.BoolVar(&o.probe, "probe-setup", false, "run set-up only, then exit (used for setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	newBench, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", o.workload, o.seconds)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.probe {
		return probeSetup(newBench(o))
	}
	res, err := measure(o, newBench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	rec, err := json.Marshal(map[string]any{"run_record": res.record})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(rec))
	line, err := json.Marshal(res.output(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// probeSetup is the child side of a setup_s probe: set up, report ready
// on stdout, tear down.
func probeSetup(b bench) int {
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe set-up:", err)
		return 1
	}
	fmt.Println("ready")
	b.teardown()
	return 0
}

// timeSetup starts n fresh processes of this binary in probe mode and
// returns, per process, the time from start until it reported ready:
// process start, runtime and package initialisation, then the workload's
// set-up.
func timeSetup(o options, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		d, err := probeOnce(self, o)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// probeOnce runs one set-up probe process.
func probeOnce(self string, o options) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--out", o.out, "--probe-setup")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(t0)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" || werr != nil {
		return 0, fmt.Errorf("set-up probe: %v", errors.Join(rerr, werr))
	}
	return elapsed, nil
}

// measure runs the set-up probes and the passes, then checks them.
func measure(o options, newBench func(options) bench) (*result, error) {
	setups, err := timeSetup(o, setupProbes)
	if err != nil {
		return nil, err
	}
	b := newBench(o)
	plain, err := runPass(b, nil, nil)
	if err != nil {
		return nil, err
	}
	passes := []*pass{plain}
	var tr *tracer
	var prof profileShares
	if o.trace {
		tr = newTracer()
		profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))
		traced, shares, err := runProfiled(b, tr, profPath)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		prof = shares
	}

	r := newResult()
	b.check(passes, r)
	for _, p := range passes {
		r.attempted += p.attempted
		r.failed += p.failed
		r.failures = append(r.failures, p.failures...)
	}
	last := passes[len(passes)-1]
	r.samples["setup_s"] = len(setups)
	r.e2e["setup_s"] = median(setups)
	r.fillHostMetrics(plain, last)
	r.e2e["peak_rss_mb"] = peakRSSMiB()
	if o.trace {
		r.layer["runtime.alloc_mb"] = float64(last.allocBytes) / (1 << 20)
		r.layer["runtime.gc_cycles"] = float64(last.gcCycles)
		for mod, share := range prof {
			r.layer[mod+".self_share"] = share
		}
		tracePath := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(tracePath); err != nil {
			return nil, err
		}
		r.record["trace_file"] = tracePath
		r.record["spans"] = tr.len()
	}
	r.fillRecord(o)
	return r, nil
}

// runPass is one setup → timed → teardown cycle, with the Go heap
// activity of the timed phase attached to the pass. When prof is
// non-nil, the timed phase runs under a CPU profile written to it.
func runPass(b bench, tr *tracer, prof io.Writer) (*pass, error) {
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.teardown()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	p, err := b.timed(tr)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	return p, nil
}

// runProfiled is the traced pass: spans into tr, and a CPU profile of the
// timed phase written to path and summed by module.
func runProfiled(b bench, tr *tracer, path string) (*pass, profileShares, error) {
	var buf bytes.Buffer
	p, err := runPass(b, tr, &buf)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	shares, err := moduleShares(buf.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, shares, nil
}
