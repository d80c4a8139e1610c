// Golden-output tests: every committed file under results/ is checked by
// running the command that writes it and diffing its stdout byte for
// byte. This is the safety rail for every simulator-hot-path change — the
// simulator is deterministic, so any byte of drift in a table, figure or
// example output means the change moved simulated behavior, not just
// speed. With REGEN_GOLDEN=1 the same tests rewrite the files instead
// (`make results`).
package repro_test

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// outputs is every committed file under results/ that a command prints:
// the file, the package whose stdout it is, and that package's arguments.
var outputs = []struct {
	file  string
	pkg   string
	args  []string
	short bool // also runs under -short
}{
	{"table1.txt", "./cmd/cobra-npb", []string{"-table", "1", "-progress=false"}, true},
	{"figures567.txt", "./cmd/cobra-npb", []string{"-figure", "all", "-progress=false"}, false},
	{"figure3a.txt", "./cmd/cobra-npb", []string{"-figure", "3a", "-progress=false"}, false},
	{"figure3b.txt", "./cmd/cobra-npb", []string{"-figure", "3b", "-progress=false"}, false},
	{"quickstart.txt", "./examples/quickstart", nil, false},
	{"numa-lu.txt", "./examples/numa-lu", nil, false},
	{"adaptive-daxpy.txt", "./examples/adaptive-daxpy", nil, false},
	{"fuzz-smoke.txt", "./cmd/cobra-verify", []string{"-seed", "1", "-n", "1000", "-fault-every", "5"}, false},
}

// TestResults builds each package of outputs once, runs every row, and
// compares its stdout with the committed file. It first checks that every
// regular file under results/ is covered, so a file no test reads, or a
// row dropped from the table, fails here.
func TestResults(t *testing.T) {
	// Other tests check the phased trace (TestGoldenPhasedTrace) and the
	// digest pins (pins_test.go, internal/cobra's TestEngineDigests);
	// .done is the repository's seed marker, not an output.
	covered := map[string]bool{"adaptive-daxpy.trace.json": true, "digests.json": true, ".done": true}
	for _, o := range outputs {
		covered[o.file] = true
	}
	err := filepath.WalkDir("results", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case path == filepath.Join("results", "ledger"): // run ledger, ignored by git
			return filepath.SkipDir
		case !d.Type().IsRegular():
			return nil
		}
		name, _ := filepath.Rel("results", path)
		if !covered[name] {
			t.Errorf("results/%s is checked by no test: add a row to outputs", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bins := map[string]string{}
	for _, o := range outputs {
		t.Run(o.file, func(t *testing.T) {
			if testing.Short() && !o.short {
				t.Skip("runs a full experiment; skipped with -short")
			}
			bin, ok := bins[o.pkg]
			if !ok {
				bin = filepath.Join(dir, filepath.Base(o.pkg))
				if out, err := exec.Command("go", "build", "-o", bin, o.pkg).CombinedOutput(); err != nil {
					t.Fatalf("go build %s: %v\n%s", o.pkg, err, out)
				}
				bins[o.pkg] = bin
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, o.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %s: %v\n%s", o.pkg, strings.Join(o.args, " "), err, stderr.Bytes())
			}
			checkGolden(t, o.file, stdout.Bytes())
		})
	}
}

// checkGolden compares got with the committed results/name or, with
// REGEN_GOLDEN set, writes got there instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile(filepath.Join("results", name), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated results/%s", name)
		return
	}
	want, err := os.ReadFile(filepath.Join("results", name))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	diffBytes(t, "results/"+name, got, want)
}

// diffBytes fails the test with the first differing line when got != want.
func diffBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s drifted at line %d:\n got: %q\nwant: %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: %d generated lines vs %d committed", name, len(gl), len(wl))
}
