package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. The tables below are the metric
// lists of BENCHMARK.json, in the same order (a unit test keeps them in
// step).
type metricDef struct{ name, unit string }

// endToEnd is printed with --trace 0. An operation is what a user of the
// workload waits for: one whole sweep (npb-sweep), one session
// (adaptive-session), one HTTP session request (serve-mix).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// modules are the layers the CPU profile is split into; other takes
// every repository package not listed and the benchmark's own code.
var modules = []string{
	"machine", "ia64", "openmp", "mem", "hpm", "perfmon", "cobra", "strategy",
	"obs", "workload", "compiler", "sched", "serve", "runtime", "stdlib", "other",
}

// perLayer is printed with --trace 1. Metrics a workload does not reach
// read 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.instructions", "count"},
		{"machine.sim_cycles", "count"},
		{"machine.sim_mips", "Minstr/s"},
		{"machine.ns_per_instr", "ns"},
		{"openmp.regions", "count"},
		{"mem.accesses", "count"},
		{"mem.l3_misses", "count"},
		{"mem.bus_transactions", "count"},
		{"mem.hitm", "count"},
		{"mem.coherent_ratio", "ratio"},
		{"mem.writebacks", "count"},
		{"mem.hitm_per_kaccess_phased", "1/1000"},
		{"mem.hitm_per_kaccess_chase", "1/1000"},
		{"perfmon.samples", "count"},
		{"perfmon.dropped", "count"},
		{"cobra.passes", "count"},
		{"cobra.triggers", "count"},
		{"cobra.patches", "count"},
		{"cobra.rollbacks", "count"},
		{"cobra.switches", "count"},
		{"cobra.kept_ratio", "ratio"},
		{"cobra.speedup", "ratio"},
		{"cobra.paper_error", "ratio"},
		{"obs.trace_events", "count"},
		{"obs.trace_dropped", "count"},
		{"obs.decisions", "count"},
		{"obs.bus_events", "count"},
		{"obs.artifact_bytes", "bytes"},
		{"obs.write_ms", "ms"},
		{"workload.build_ms", "ms"},
		{"workload.setup_ms", "ms"},
		{"workload.verify_ms", "ms"},
		{"workload.cache_hit_ratio", "ratio"},
		{"sched.cell_p50_s", "s"},
		{"sched.busy_frac", "ratio"},
		{"sched.queue_wait_ms", "ms"},
		{"sched.ledger_hit_ratio", "ratio"},
		{"serve.submit_ms", "ms"},
		{"serve.status_ms", "ms"},
		{"serve.artifact_ms", "ms"},
		{"serve.envelope_ms", "ms"},
		{"serve.polls_per_session", "count"},
		{"serve.sse_events", "count"},
		{"serve.rejected", "count"},
		{"runtime.alloc_mb", "MiB"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_op_p50", "ratio"},
		{"trace.overhead_op_tail", "ratio"},
		{"trace.overhead_ops_per_s", "ratio"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".self_share", "ratio"})
	}
	return defs
}()

// pass is one timed phase.
type pass struct {
	wall       time.Duration // the whole timed phase
	cpu        time.Duration // process CPU time (user + system) in it
	ops        []float64     // seconds per operation
	attempted  int
	failed     int
	failures   []string
	allocBytes uint64
	gcCycles   uint32
	detail     any // the workload's own records, read by its check
}

// fail records one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	samples           map[string]int     // metric → timing sample count
	percentiles       map[string]float64 // metric → percentile reported
	record            map[string]any
}

func newResult() *result {
	return &result{
		e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string]int{}, percentiles: map[string]float64{},
		record: map[string]any{},
	}
}

// fail records a failure found by a check after the timed phase.
func (r *result) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// fillHostMetrics sets the host-time end-to-end metrics from the
// untraced pass and, when a traced pass ran, the tracing overhead as
// traced ÷ untraced.
func (r *result) fillHostMetrics(plain, last *pass) {
	p50 := median(plain.ops)
	tailV, pct := tail(plain.ops)
	perS := ratio(float64(len(plain.ops)), plain.wall.Seconds())
	r.e2e["op_p50_s"], r.e2e["op_tail_s"], r.e2e["ops_per_s"] = p50, tailV, perS
	r.samples["op_p50_s"], r.samples["op_tail_s"] = len(plain.ops), len(plain.ops)
	r.samples["ops_per_s"] = len(plain.ops)
	r.percentiles["op_p50_s"], r.percentiles["op_tail_s"] = 50, pct
	r.record["timed_wall_s"] = plain.wall.Seconds()
	r.record["timed_cpu_s"] = plain.cpu.Seconds()
	if last != plain {
		tailT, _ := tail(last.ops)
		r.layer["trace.overhead_op_p50"] = ratio(median(last.ops), p50)
		r.layer["trace.overhead_op_tail"] = ratio(tailT, tailV)
		r.layer["trace.overhead_ops_per_s"] = ratio(ratio(float64(len(last.ops)), last.wall.Seconds()), perS)
	}
}

// metricValue is one entry of the output's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final line: every end-to-end metric, or with trace
// every per-layer metric.
func (r *result) output(trace bool) map[string]any {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// fillRecord adds the run record: inputs, host, toolchain and source.
func (r *result) fillRecord(o options) {
	r.record["workload"] = o.workload
	r.record["seed"] = o.seed
	r.record["seconds"] = o.seconds
	r.record["trace"] = o.trace
	r.record["nproc"] = runtime.NumCPU()
	r.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.record["cpu_model"] = cpuModel()
	r.record["go_version"] = runtime.Version()
	r.record["commit"] = commit()
	r.record["source_sha256"] = sourceDigest()
	r.record["samples"] = r.samples
	r.record["percentiles"] = r.percentiles
	r.record["error_rate"] = ratio(float64(r.failed), float64(max(r.attempted, 1)))
	if len(r.failures) > 0 {
		r.record["failures"] = r.failures
	}
}

// ---- statistics ----

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first. A fixed ladder keeps the percentile steady across runs whose
// sample counts differ a little.
var tailLadder = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tail returns the value at the highest ladder percentile with at least
// minBeyond samples beyond it (nearest rank), and that percentile. With
// too few samples for any rung it returns the maximum and 100.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9: 99.9% of 10000 is rank 9990

		if n-rank >= minBeyond {
			return s[rank-1], p
		}
	}
	return s[n-1], 100
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- host and source ----

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// procField returns the trimmed value of the first "key ... : value"
// line of a /proc file ("" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// commit is the checked-out git revision, when the working directory is
// a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a run names the code it measured without git.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
