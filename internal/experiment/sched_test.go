package experiment_test

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/npb"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRunNPBParityAcrossWorkerCounts is the determinism contract of the
// scheduler port: the same sweep under jobs=1 and jobs=8 must produce
// deeply equal cells. Each cell is an independent deterministic
// simulation, so worker count and completion order must be unobservable
// in the output.
func TestRunNPBParityAcrossWorkerCounts(t *testing.T) {
	benches := []string{"cg", "mg"}
	serial, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, benches, experiment.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, benches, experiment.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Fatalf("jobs=1 and jobs=8 cells differ:\n%+v\n%+v", serial.Cells, parallel.Cells)
	}
}

func TestFigure3ParityAcrossWorkerCounts(t *testing.T) {
	scale := experiment.QuickDaxpyScale()
	serial, err := experiment.Figure3Sched('a', scale, experiment.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiment.Figure3Sched('a', scale, experiment.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=8 cells differ:\n%+v\n%+v", serial, parallel)
	}
}

func TestTable1ParityAcrossWorkerCounts(t *testing.T) {
	serial, err := experiment.Table1Sched(npb.ClassT, experiment.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiment.Table1Sched(npb.ClassT, experiment.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=8 rows differ:\n%+v\n%+v", serial, parallel)
	}
}

// TestRunNPBSharesCompiles checks the artifact cache: the three strategies
// of one benchmark differ only in the attached COBRA runtime, so a sweep
// of B benchmarks × 3 strategies compiles exactly B binaries.
func TestRunNPBSharesCompiles(t *testing.T) {
	cache := workload.NewBuildCache()
	_, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, []string{"cg", "mg"}, experiment.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (one compile per benchmark)", misses)
	}
	if hits != 4 {
		t.Errorf("hits = %d, want 4 (two extra strategies per benchmark)", hits)
	}
}

// TestIncrementalLedgerSkipsUnchangedCells exercises -incremental end to
// end: a rerun against the same ledger executes nothing and reproduces
// the recorded measurements exactly.
func TestIncrementalLedgerSkipsUnchangedCells(t *testing.T) {
	led, err := sched.OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	var executed, cached atomic.Int64
	opt := experiment.Options{
		Ledger: led,
		Hooks: sched.Hooks{
			Started: func(sched.Event) { executed.Add(1) },
			Cached:  func(sched.Event) { cached.Add(1) },
		},
	}
	cold, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, []string{"mg"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() == 0 || cached.Load() != 0 {
		t.Fatalf("cold run: executed=%d cached=%d", executed.Load(), cached.Load())
	}
	coldExecuted := executed.Load()

	warm, err := experiment.RunNPBSched(experiment.SMP4, npb.ClassT, []string{"mg"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != coldExecuted {
		t.Fatalf("warm run re-executed cells: %d -> %d", coldExecuted, executed.Load())
	}
	if cached.Load() != coldExecuted {
		t.Fatalf("warm run cached %d cells, want %d", cached.Load(), coldExecuted)
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Fatalf("ledger round trip changed the cells:\n%+v\n%+v", cold.Cells, warm.Cells)
	}

	// A config change must invalidate: the NUMA sweep shares no keys.
	executed.Store(0)
	cached.Store(0)
	if _, err := experiment.RunNPBSched(experiment.Altix8, npb.ClassT, []string{"mg"}, opt); err != nil {
		t.Fatal(err)
	}
	if cached.Load() != 0 {
		t.Fatalf("NUMA sweep hit SMP ledger entries: %d", cached.Load())
	}
	if executed.Load() == 0 {
		t.Fatal("NUMA sweep executed nothing")
	}
}

// artifactSweep runs the quick Figure 3(a) sweep on led into dir and
// returns the keys of the cells that executed and how many were cached.
func artifactSweep(t *testing.T, led *sched.Ledger, dir string) (executed []string, cached int, err error) {
	t.Helper()
	opt := experiment.Options{
		Jobs:        2,
		Ledger:      led,
		ArtifactDir: dir,
		// Hooks are serialized by the scheduler: no lock needed.
		Hooks: sched.Hooks{
			Started: func(ev sched.Event) { executed = append(executed, ev.Key) },
			Cached:  func(sched.Event) { cached++ },
		},
	}
	_, err = experiment.Figure3Sched('a', experiment.QuickDaxpyScale(), opt)
	return executed, cached, err
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestFigure3ArtifactsPerExecutedCell: every executed cell writes its
// trace, metrics and decision log under its 16-hex-digit key prefix —
// the deduplicated normalization anchor once — and a rerun on the same
// ledger is all hits and writes nothing.
func TestFigure3ArtifactsPerExecutedCell(t *testing.T) {
	led, err := sched.OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	executed, cached, err := artifactSweep(t, led, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 4 || cached != 0 {
		t.Fatalf("cold sweep: %d executed, %d cached; want 4 and 0", len(executed), cached)
	}
	var want []string
	for _, key := range executed {
		for _, ext := range []string{".decisions.txt", ".metrics.json", ".trace.json"} {
			want = append(want, key[:16]+ext)
		}
	}
	sort.Strings(want)
	if got := dirEntries(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("artifact files = %q, want %q", got, want)
	}

	empty := t.TempDir()
	executed, cached, err = artifactSweep(t, led, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 || cached != 4 {
		t.Fatalf("warm sweep: %d executed, %d cached; want 0 and 4", len(executed), cached)
	}
	if got := dirEntries(t, empty); len(got) != 0 {
		t.Fatalf("ledger hits wrote artifacts: %q", got)
	}
}

// TestFigure3ArtifactsDisabledWithoutDir: with no ArtifactDir the cells
// attach no observer and write nothing, not even into the working
// directory, and measure exactly what an observed sweep measures.
func TestFigure3ArtifactsDisabledWithoutDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := t.TempDir()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	scale := experiment.QuickDaxpyScale()
	plain, err := experiment.Figure3Sched('a', scale, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dirEntries(t, cwd); len(got) != 0 {
		t.Fatalf("sweep without ArtifactDir wrote %q", got)
	}
	observed, err := experiment.Figure3Sched('a', scale, experiment.Options{ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observing the sweep changed its cells:\n%+v\n%+v", plain, observed)
	}
}

// TestFigure3ArtifactWriteFailureFailsCell: a cell whose artifacts cannot
// be written (the artifact dir is a regular file) fails as "artifacts: …"
// and is not ledgered, so the next run executes it again.
func TestFigure3ArtifactWriteFailureFailsCell(t *testing.T) {
	led, err := sched.OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := artifactSweep(t, led, file); err == nil || !strings.Contains(err.Error(), "artifacts: ") {
		t.Fatalf("sweep into a regular file: err = %v, want an artifacts: failure", err)
	}
	if n, err := led.Len(); err != nil || n != 0 {
		t.Fatalf("ledger holds %d entries (%v) after failed cells, want 0", n, err)
	}
	executed, cached, err := artifactSweep(t, led, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 4 || cached != 0 {
		t.Fatalf("rerun: %d executed, %d cached; want 4 and 0", len(executed), cached)
	}
}

// TestTable1KeyedByProgramAndCompiler: a Table 1 row is recorded under a
// key of its program and compiler options only, so a change to the
// machine model it is compiled against does not re-key it.
func TestTable1KeyedByProgramAndCompiler(t *testing.T) {
	led, err := sched.OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiment.Table1Sched(npb.ClassT, experiment.Options{Ledger: led, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range npb.Names {
		var row experiment.Table1Row
		key := sched.KeyOf("table1", name, npb.Params{Class: npb.ClassT}, compiler.DefaultOptions())
		if ok, err := led.Get(key, &row); !ok || err != nil {
			t.Fatalf("%s: no ledger entry under its program/compiler key (err %v)", name, err)
		}
		if row != rows[i] {
			t.Fatalf("%s: recorded %+v, returned %+v", name, row, rows[i])
		}
	}
}

// TestTable1LogsLedgerRecovery: a sweep whose ledger holds one truncated
// entry says so through the standard logger — exactly one line, naming
// the entry's key — quarantines the entry, and still returns the rows.
func TestTable1LogsLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	led, err := sched.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.Table1Sched(npb.ClassT, experiment.Options{Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("recorded entries = %v (err %v), want one per row", entries, err)
	}
	victim := entries[0]
	key := strings.TrimSuffix(filepath.Base(victim), ".json")
	full, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	// One worker: the standard logger is written from worker goroutines.
	got, err := experiment.Table1Sched(npb.ClassT, experiment.Options{Jobs: 1, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after recovery = %+v, want %+v", got, want)
	}
	logs := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(logs) != 1 || !strings.Contains(logs[0], key) {
		t.Fatalf("logs = %q, want one line naming %s", logs, key)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("truncated entry not quarantined: %v", err)
	}
}
