package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

// goldenPath is the committed output the sweep must reproduce.
const goldenPath = "results/figures567.txt"

// The paper's Figure 5(b) average speedups on the Altix: noprefetch
// +17.5 %, prefetch.excl +8.5 % (EXPERIMENTS.md).
var paperAltixAvg = map[experiment.StrategyLabel]float64{
	experiment.NoPrefetch: 1.175,
	experiment.Excl:       1.085,
}

// nominalSweep is one Figure 5(b) sweep's wall time on the 2-core
// reference host; --seconds buys max(minSweeps, seconds/nominalSweep)
// sweeps. One sweep's wall time swings by ±10 % with the host's load, so
// a run always times at least two and reports their median.
const (
	nominalSweep = 20 * time.Second
	minSweeps    = 2
)

// sweep is the npb-sweep workload: the Figure 5(b) cells (six NPB
// class-S programs × three strategies on the 8-CPU Altix model) through
// experiment.RunNPBSched at jobs = nproc, with a fresh build cache, no
// ledger and no observer. The seed permutes the job submission order.
type sweep struct {
	o      options
	order  []string
	golden string
}

// sweepRun is one sweep's output.
type sweepRun struct {
	res       *experiment.NPBResult
	err       error
	wall      time.Duration
	cells     map[string]time.Duration // Elapsed per cell name
	waits     []float64                // seconds from sweep start to cell start
	cellErrs  int
	cacheHits int64
	cacheMiss int64
}

func newSweep(o options) bench { return &sweep{o: o} }

func (s *sweep) setup() error {
	s.order = append([]string(nil), npb.ResultNames...)
	rng := rand.New(rand.NewSource(s.o.seed))
	rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	s.golden, err = goldenBlock(string(data), "Figure 5(b):", "COBRA activity (")
	return err
}

func (s *sweep) teardown() {}

func (s *sweep) timed(tr *tracer) (*pass, error) {
	n := max(minSweeps, int(time.Duration(s.o.seconds)*time.Second/nominalSweep))
	p := &pass{}
	var runs []*sweepRun
	t0 := time.Now()
	for i := 0; i < n; i++ {
		run := s.once(tr, i)
		runs = append(runs, run)
		p.ops = append(p.ops, run.wall.Seconds())
		p.attempted += len(s.order) * len(experiment.Strategies)
	}
	p.wall = time.Since(t0)
	p.detail = runs
	return p, nil
}

// once runs one sweep, timing each cell through the scheduler hooks.
func (s *sweep) once(tr *tracer, i int) *sweepRun {
	run := &sweepRun{cells: map[string]time.Duration{}}
	cache := workload.NewBuildCache()
	var mu sync.Mutex
	spans := map[string]int64{}
	lanes := map[string]int{}
	t0 := time.Now()
	root := tr.begin("RunNPBSched", fmt.Sprintf("sweep-%d", i), 0, 0)
	hooks := sched.Hooks{
		Started: func(ev sched.Event) {
			mu.Lock()
			defer mu.Unlock()
			run.waits = append(run.waits, time.Since(t0).Seconds())
			lanes[ev.Name] = len(lanes) + 1
			spans[ev.Name] = tr.begin("cell", ev.Name, lanes[ev.Name], root)
		},
		Finished: func(ev sched.Event) {
			mu.Lock()
			defer mu.Unlock()
			tr.end(spans[ev.Name])
			run.cells[ev.Name] = ev.Elapsed
			if ev.Err != nil {
				run.cellErrs++
			}
		},
	}
	run.res, run.err = experiment.RunNPBSched(experiment.Altix8, npb.ClassS, s.order,
		experiment.Options{Jobs: runtime.NumCPU(), Cache: cache, Hooks: hooks})
	run.wall = time.Since(t0)
	tr.end(root)
	run.cacheHits, run.cacheMiss = cache.Stats()
	return run
}

func (s *sweep) check(passes []*pass, r *result) {
	cells := len(s.order) * len(experiment.Strategies)
	var last *sweepRun
	for _, p := range passes {
		for _, run := range p.detail.([]*sweepRun) {
			last = run
			if run.err != nil {
				p.failed += max(run.cellErrs, 1)
				p.failures = append(p.failures, fmt.Sprintf("sweep: %v", run.err))
				continue
			}
			canon := canonicalOrder(run.res)
			if got := renderAltix(canon); got != s.golden {
				p.failed += cells
				p.failures = append(p.failures, "sweep: rendered Figure 5(b)-7(b) and COBRA activity differ from "+goldenPath+":\n"+firstDiff(s.golden, got))
			}
		}
	}
	if last == nil || last.err != nil {
		return
	}
	res := canonicalOrder(last.res)
	var cellTimes, speedups []float64
	var busy time.Duration
	var sim simTotals
	for _, c := range res.Cells {
		sim.add(c.Measurement)
		if c.Strategy != experiment.Baseline {
			speedups = append(speedups, res.Speedup(c.Bench, c.Strategy))
		}
	}
	for _, d := range last.cells {
		cellTimes = append(cellTimes, d.Seconds())
		busy += d
	}
	sim.fill(r.layer)
	r.layer["cobra.speedup"] = geomean(speedups)
	r.layer["cobra.paper_error"] = paperError(res)
	r.layer["sched.cell_p50_s"] = median(cellTimes)
	r.layer["sched.busy_frac"] = ratio(busy.Seconds(), float64(runtime.NumCPU())*last.wall.Seconds())
	r.layer["sched.queue_wait_ms"] = median(last.waits) * 1000
	r.layer["workload.cache_hit_ratio"] = ratio(float64(last.cacheHits), float64(last.cacheHits+last.cacheMiss))
	r.samples["sched.cell_p50_s"] = len(cellTimes)
	r.record["model_validation"] = fmt.Sprintf("Figure 5(b) average speedups against the paper (+17.5 %% noprefetch, +8.5 %% prefetch.excl): mean |error| %.4f", r.layer["cobra.paper_error"])
	r.record["submission_order"] = s.order
	cellS := map[string]float64{}
	for name, d := range last.cells {
		cellS[name] = d.Seconds()
	}
	r.record["cell_s"] = cellS
}

// canonicalOrder returns the sweep's cells in the paper's reporting
// order, whatever order they were submitted in.
func canonicalOrder(res *experiment.NPBResult) *experiment.NPBResult {
	out := &experiment.NPBResult{Machine: res.Machine, Threads: res.Threads}
	for _, b := range npb.ResultNames {
		for _, st := range experiment.Strategies {
			if c, ok := res.Cell(b, st); ok {
				out.Cells = append(out.Cells, c)
			}
		}
	}
	return out
}

// renderAltix renders the Altix block exactly as cmd/cobra-npb prints it.
func renderAltix(res *experiment.NPBResult) string {
	var b bytes.Buffer
	report.Figure5(&b, 'b', res)
	b.WriteString("\n")
	report.Figure6(&b, 'b', res)
	b.WriteString("\n")
	report.Figure7(&b, 'b', res)
	b.WriteString("\n")
	report.CobraActivity(&b, res)
	return b.String()
}

// goldenBlock cuts from text the lines from the one starting with first
// through the end of the paragraph group headed by the line starting
// with last: that heading, its blank line, and the table under it.
func goldenBlock(text, first, last string) (string, error) {
	start := lineIndex(text, first, 0)
	if start < 0 {
		return "", fmt.Errorf("golden: no line starting %q", first)
	}
	head := lineIndex(text, last, start)
	if head < 0 {
		return "", fmt.Errorf("golden: no line starting %q after %q", last, first)
	}
	// Skip the heading line and the blank line under it; the table ends
	// at the next blank line or the end of the text.
	body := head
	for i := 0; i < 2; i++ {
		nl := strings.IndexByte(text[body:], '\n')
		if nl < 0 {
			return "", fmt.Errorf("golden: %q block has no table", last)
		}
		body += nl + 1
	}
	if end := strings.Index(text[body:], "\n\n"); end >= 0 {
		return text[start : body+end+1], nil
	}
	return text[start:], nil
}

// lineIndex returns the offset of the first line at or after from that
// starts with prefix, or -1.
func lineIndex(text, prefix string, from int) int {
	for i := from; i < len(text); {
		if (i == 0 || text[i-1] == '\n') && strings.HasPrefix(text[i:], prefix) {
			return i
		}
		nl := strings.IndexByte(text[i:], '\n')
		if nl < 0 {
			return -1
		}
		i += nl + 1
	}
	return -1
}

// firstDiff describes the first differing line of want and got.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "equal"
}

// paperError is the mean |measured − paper| of the Figure 5(b) average
// speedups of the two COBRA strategies.
func paperError(res *experiment.NPBResult) float64 {
	sum := 0.0
	for st, paper := range paperAltixAvg {
		d := res.Average(res.Speedup, st) - paper
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(paperAltixAvg))
}
