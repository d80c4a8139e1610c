// Command cobra-npb regenerates the paper's experiments: the Figure 2
// assembly listing (-dump-asm), Table 1 (static counts), the Figure 3
// DAXPY sweeps (prefetch vs noprefetch and vs prefetch.excl on the 4-way
// SMP), and Figures 5-7 (speedup, L3 misses and bus transactions on NPB
// under the COBRA noprefetch and prefetch.excl optimizations, on the
// 4-way SMP and the Altix cc-NUMA models).
//
// Every experiment cell runs as an independent job on the internal/sched
// worker pool (-jobs), compiled binaries are shared across strategies
// through the build cache, and -incremental skips cells already recorded
// in the run ledger. Output is deterministic: identical for any -jobs
// value and for cached vs executed cells.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/experiment"
	"repro/internal/ia64"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cobra-npb: ")
	var (
		table   = flag.Int("table", 0, "regenerate a table (1)")
		figure  = flag.String("figure", "", "regenerate figures: 3a,3b,5a,5b,6a,6b,7a,7b, or 'all' (5a-7b)")
		dumpAsm = flag.Bool("dump-asm", false, "disassemble the compiled DAXPY kernel (the paper's Figure 2)")
		classS  = flag.Bool("class-s", true, "class-S-scaled NPB sizes and the full Figure 3 sweep (false = tiny sizes, reduced sweep)")
		benches = flag.String("benches", "", "comma-separated benchmark subset (default: the paper's six)")

		jobs        = flag.Int("jobs", 0, "concurrent experiment cells (0 = GOMAXPROCS)")
		incremental = flag.Bool("incremental", false, "skip cells already recorded in the run ledger")
		ledgerDir   = flag.String("ledger-dir", "results/ledger", "run ledger directory (with -incremental)")
		progress    = flag.Bool("progress", true, "print per-cell progress lines to stderr")
		artifacts   = flag.String("artifacts", "", "write per-cell observability artifacts (trace/metrics/decisions) to DIR")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cobra-npb -table 1 | -figure 3a|3b|5a|5b|6a|6b|7a|7b|all [-benches bt,sp,...] [-jobs N] [-incremental] | -dump-asm")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *dumpAsm {
		if err := dumpDaxpy(); err != nil {
			log.Fatal(err)
		}
		return
	}

	opt, err := schedOptions(*jobs, *incremental, *ledgerDir, *progress, *artifacts)
	if err != nil {
		log.Fatal(err)
	}

	class := npb.ClassT
	if *classS {
		class = npb.ClassS
	}

	if *table == 1 {
		rows, err := experiment.Table1Sched(class, opt)
		if err != nil {
			log.Fatal(err)
		}
		report.Table1(os.Stdout, rows)
		return
	}

	list := *figure
	if list == "all" {
		list = "5a,5b,6a,6b,7a,7b"
	}
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains([]string{"3a", "3b", "5a", "5b", "6a", "6b", "7a", "7b"}, f) {
			if f != "" {
				fmt.Fprintf(os.Stderr, "cobra-npb: unknown figure %q\n", f)
			}
			flag.Usage()
			os.Exit(2)
		}
		want[f] = true
	}

	// Figure 3 panels come first; a blank line separates each from what
	// follows it.
	scale := experiment.DefaultDaxpyScale()
	if !*classS {
		scale = experiment.QuickDaxpyScale()
	}
	printed := false
	for _, panel := range []byte{'a', 'b'} {
		if !want["3"+string(panel)] {
			continue
		}
		if printed {
			fmt.Println()
		}
		cells, err := experiment.Figure3Sched(panel, scale, opt)
		if err != nil {
			log.Fatal(err)
		}
		report.Figure3(os.Stdout, panel, cells)
		printed = true
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	// One sweep per machine serves all its figures.
	machines := map[byte]experiment.MachineKind{'a': experiment.SMP4, 'b': experiment.Altix8}
	for _, panel := range []byte{'a', 'b'} {
		needed := want["5"+string(panel)] || want["6"+string(panel)] || want["7"+string(panel)]
		if !needed {
			continue
		}
		if printed {
			fmt.Println()
			printed = false
		}
		res, err := experiment.RunNPBSched(machines[panel], class, names, opt)
		if err != nil {
			log.Fatal(err)
		}
		if want["5"+string(panel)] {
			report.Figure5(os.Stdout, panel, res)
			fmt.Println()
		}
		if want["6"+string(panel)] {
			report.Figure6(os.Stdout, panel, res)
			fmt.Println()
		}
		if want["7"+string(panel)] {
			report.Figure7(os.Stdout, panel, res)
			fmt.Println()
		}
		report.CobraActivity(os.Stdout, res)
		fmt.Println()
	}
}

// dumpDaxpy compiles the DAXPY kernel and prints its disassembly, showing
// the icc-style shape of Figure 2: prologue lfetch burst, software-
// pipelined ctop loop with rotating registers, and steady-state
// lfetch.nt1.
func dumpDaxpy() error {
	w := workload.Daxpy(workload.DaxpyParams{WorkingSetBytes: 128 << 10, OuterReps: 1})
	inst, err := workload.Build(w, workload.SMPConfig(1))
	if err != nil {
		return err
	}
	fmt.Println("// Compiled OpenMP DAXPY kernel (cf. paper Figure 2)")
	ia64.DumpFunc(os.Stdout, inst.Ctx.M.Image(), inst.Ctx.Res.Funcs["daxpy_body"].Fn)
	return nil
}

// schedOptions assembles the scheduler options shared by every sweep of
// this invocation: one worker pool size, one optional ledger, one build
// cache (so the SMP and NUMA sweeps of -figure all reuse compiles where
// configurations coincide).
func schedOptions(jobs int, incremental bool, ledgerDir string, progress bool, artifactDir string) (experiment.Options, error) {
	opt := experiment.Options{Jobs: jobs, Cache: workload.NewBuildCache(), ArtifactDir: artifactDir}
	if incremental {
		led, err := sched.OpenLedger(ledgerDir)
		if err != nil {
			return opt, err
		}
		opt.Ledger = led
	}
	if progress {
		opt.Hooks = sched.ConsoleHooks(os.Stderr)
	}
	return opt, nil
}
