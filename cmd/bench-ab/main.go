// Command bench-ab measures a change end to end: it runs the repository's
// benchmark (BENCHMARK.json) as interleaved pairs of a reference revision
// and the working tree, then prints, for every end-to-end metric, each
// side's quartiles, how many pairs the change won, the ratio of the
// medians, the metric's bound and a verdict. `make bench-ab REF=<rev>`
// runs it.
//
//	go run ./cmd/bench-ab -ref HEAD~1 [-workload serve-mix] [-pairs 10] [-seed 1]
//
// The reference, labelled "parent" in the tables, is checked out as a
// git worktree under .bench_build/ab/ and removed on exit. Pair i runs BENCHMARK.json's command with
// --workload W --seed <seed+i> --seconds <run_seconds> --trace 0 once
// from each checkout, each side under its own CARGO_TARGET_DIR, the
// reference first on even pairs and the working tree first on odd ones.
// The last line of a run's stdout is its result. The verdict rule:
//
//   - worse: the change's median is beyond the bound;
//   - better: the change wins at least 9 pairs in 10 (ties count for
//     neither side) and the medians differ by more than the reference's
//     interquartile range;
//   - unresolved: either side's interquartile range is wider than the
//     bound, unless every change run beats every reference run;
//   - within bound: otherwise.
//
// A run reporting correct: false or failed > 0 voids every verdict: the
// tables print without them and the exit status is 1. Exit status 2 is a
// usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// benchSpec is the part of BENCHMARK.json this command reads.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// metricDef is one end-to-end metric and the bound by which it may
// worsen, as a fraction of the reference's median.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// runResult is a benchmark run's last stdout line.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// sideNames label the two sides in the order pair.runs holds them.
var sideNames = [2]string{"parent", "change"}

// pair is one reference run and one change run on the same seed.
type pair struct {
	seed        int
	changeFirst bool
	runs        [2]runResult // reference, change
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-ab: ")
	ref := flag.String("ref", "", "reference revision (required)")
	workload := flag.String("workload", "", "workload to run (default: every workload in BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i uses seed+i")
	flag.Parse()
	if *ref == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, *ref, *workload, *pairs, *seed)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run checks the reference out, measures every selected workload and
// prints its tables. It reports false when a run was incorrect or failed
// operations.
func run(ctx context.Context, ref, workload string, pairs, seed int) (bool, error) {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.Command) == 0 || spec.RunSeconds < 1 {
		return false, errors.New("BENCHMARK.json: no command or run_seconds")
	}
	var workloads []string
	for _, w := range spec.Workloads {
		if workload == "" || w.Name == workload {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return false, fmt.Errorf("no workload %q in BENCHMARK.json", workload)
	}

	sha, err := git(ctx, root, "rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return false, err
	}
	build := filepath.Join(root, ".bench_build", "ab")
	tree := filepath.Join(build, "ref-"+sha[:12])
	// A worktree left behind by an interrupted run is replaced.
	_, _ = git(ctx, root, "worktree", "remove", "--force", tree)
	if _, err := git(ctx, root, "worktree", "add", "--detach", tree, sha); err != nil {
		return false, err
	}
	defer func() {
		// The run's own context may be cancelled by now.
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", tree); err != nil {
			log.Print(err)
		}
	}()
	dirs := [2]string{tree, root}

	allOK := true
	for _, w := range workloads {
		var ps []pair
		for i := 0; i < pairs; i++ {
			p := pair{seed: seed + i, changeFirst: i%2 == 1}
			order := []int{0, 1}
			if p.changeFirst {
				order = []int{1, 0}
			}
			for _, s := range order {
				target := filepath.Join(build, sideNames[s]+"-target")
				if p.runs[s], err = runOnce(ctx, spec, dirs[s], target, w, p.seed); err != nil {
					return false, fmt.Errorf("%s run, %s seed %d: %w", sideNames[s], w, p.seed, err)
				}
			}
			log.Printf("%s pair %d/%d (seed %d) done", w, i+1, pairs, p.seed)
			ps = append(ps, p)
		}
		ok := report(os.Stdout, w, ref, spec.EndToEnd, ps)
		allOK = allOK && ok
	}
	return allOK, nil
}

// runOnce executes one benchmark run from checkout dir, building into
// target.
func runOnce(ctx context.Context, spec benchSpec, dir, target, workload string, seed int) (runResult, error) {
	args := append(slices.Clone(spec.Command[1:]), "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, spec.Command[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+target)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	return parseLast(out)
}

// parseLast decodes the last non-empty line of a run's stdout.
func parseLast(out []byte) (runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("last output line: %w", err)
	}
	if r.Metrics == nil {
		return r, errors.New("last output line has no metrics")
	}
	return r, nil
}

// git runs a git command in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// summary is one metric over all pairs.
type summary struct {
	ref, change [3]float64 // q1, median, q3
	wins, n     int
	ratio       float64 // change median ÷ reference median
	verdict     string
}

// summarize applies the verdict rule to one metric's paired values.
func summarize(d metricDef, ref, change []float64) summary {
	s := summary{ref: quartiles(ref), change: quartiles(change), n: len(ref)}
	for i := range ref {
		if better(d, change[i], ref[i]) {
			s.wins++
		}
	}
	rm, cm := s.ref[1], s.change[1]
	s.ratio = cm / rm
	refIQR, changeIQR := s.ref[2]-s.ref[0], s.change[2]-s.change[0]
	allBetter := true
	for _, c := range change {
		for _, r := range ref {
			allBetter = allBetter && better(d, c, r)
		}
	}
	limit := rm * (1 + d.Bound)
	if d.Better == "higher" {
		limit = rm * (1 - d.Bound)
	}
	switch {
	case better(d, limit, cm):
		s.verdict = "worse"
	case s.wins*10 >= 9*s.n && better(d, cm, rm) && math.Abs(cm-rm) > refIQR:
		s.verdict = "better"
	case max(refIQR, changeIQR) > d.Bound*math.Abs(rm) && !allBetter:
		s.verdict = "unresolved"
	default:
		s.verdict = "within bound"
	}
	return s
}

// better reports whether a reads better than b for metric d.
func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// report prints one workload's pair table and metric table, and reports
// whether every run was correct with no failed operation. When one was
// not, the metric table carries no verdicts.
func report(w io.Writer, workload, ref string, defs []metricDef, ps []pair) bool {
	var bad []string
	fmt.Fprintf(w, "\n%s: %d pairs, parent %s vs the working tree\n\n", workload, len(ps), ref)
	fmt.Fprint(w, "| seed | first |")
	for _, d := range defs {
		fmt.Fprintf(w, " `%s` parent / change |", d.Name)
	}
	fmt.Fprint(w, "\n|---|---|"+strings.Repeat("---|", len(defs))+"\n")
	for _, p := range ps {
		first := sideNames[0]
		if p.changeFirst {
			first = sideNames[1]
		}
		fmt.Fprintf(w, "| %d | %s |", p.seed, first)
		for _, d := range defs {
			fmt.Fprintf(w, " %s / %s |", format(d, p.runs[0].Metrics[d.Name].Value), format(d, p.runs[1].Metrics[d.Name].Value))
		}
		fmt.Fprintln(w)
		for i, r := range p.runs {
			if !r.Correct || r.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s run on seed %d: correct %v, failed %d", sideNames[i], p.seed, r.Correct, r.Failed))
			}
		}
	}
	ok := len(bad) == 0

	fmt.Fprint(w, "\n| metric | parent q1 / median / q3 | change q1 / median / q3 | change better in | change median ÷ parent median | bound |")
	if ok {
		fmt.Fprint(w, " verdict |\n|---|---|---|---|---|---|---|\n")
	} else {
		fmt.Fprint(w, "\n|---|---|---|---|---|---|\n")
	}
	for _, d := range defs {
		var refV, changeV []float64
		for _, p := range ps {
			refV = append(refV, p.runs[0].Metrics[d.Name].Value)
			changeV = append(changeV, p.runs[1].Metrics[d.Name].Value)
		}
		s := summarize(d, refV, changeV)
		sign := "+"
		if d.Better == "higher" {
			sign = "−"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %d/%d | %.3f | %s%.4g%% |", d.Name,
			formatQ(d, s.ref), formatQ(d, s.change), s.wins, s.n, s.ratio, sign, d.Bound*100)
		if ok {
			fmt.Fprintf(w, " %s |", s.verdict)
		}
		fmt.Fprintln(w)
	}
	if !ok {
		fmt.Fprintf(w, "\nno verdict: %s\n", strings.Join(bad, "; "))
	}
	return ok
}

// format renders one value in its metric's unit; seconds under one
// read as milliseconds.
func format(d metricDef, v float64) string {
	if d.Unit == "s" {
		if math.Abs(v) < 1 {
			return strconv.FormatFloat(v*1e3, 'g', 4, 64) + " ms"
		}
		return strconv.FormatFloat(v, 'g', 4, 64) + " s"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func formatQ(d metricDef, q [3]float64) string {
	return format(d, q[0]) + " / " + format(d, q[1]) + " / " + format(d, q[2])
}
