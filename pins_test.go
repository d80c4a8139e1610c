package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/cobra"
	"repro/internal/serve"
)

// results/digests.json pins the numbers that tests compare but no command
// prints, one section per test:
//   - "engine": the strategy-engine digests (internal/cobra's
//     TestEngineDigests);
//   - "matrix": the scenario-matrix digests (TestScenarioMatrix);
//   - "keys": run-ledger keys (TestLedgerKeys);
//   - "model_version": the simulation model the engine and matrix
//     measurements were cut under (TestModelVersion).
//
// Under REGEN_GOLDEN=1 each test rewrites only its own section.
const pinsPath = "results/digests.json"

// readPins decodes one section of the pins file into v.
func readPins(t *testing.T, section string, v any) {
	t.Helper()
	file := loadPins(t)
	raw, ok := file[section]
	if !ok {
		t.Fatalf("%s has no %q section", pinsPath, section)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s section %q: %v", pinsPath, section, err)
	}
}

// writePins replaces one section of the pins file with v and keeps the
// others.
func writePins(t *testing.T, section string, v any) {
	t.Helper()
	file := loadPins(t)
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	file[section] = raw
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinsPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated section %q of %s", section, pinsPath)
}

func loadPins(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("%s: %v", pinsPath, err)
	}
	return file
}

// modelHashes holds, for each model version, the sha256 of the engine and
// matrix measurements cut under it. A change that moves simulated numbers
// on purpose re-pins them with `make results`, bumps model_version in the
// pins file, and adds the new version's hash here.
var modelHashes = map[int]string{
	1: "08d6201354325815973b855459003c8f59b6b05b30ce34e98d1c13fc8243fb16",
}

// TestModelVersion fails when the pinned measurements do not hash to
// their model version's entry, so a moved digest needs a version bump.
// The hash covers the cycles and counters of every engine and matrix cell
// in cell-name order. It leaves out the decision and trace hashes, which
// can move with no change to the measurement a ledger stores.
func TestModelVersion(t *testing.T) {
	var version int
	var engine map[string]struct {
		Cycles int64
		Stats  cobra.Stats
	}
	var matrix map[string]matrixDigest
	readPins(t, "model_version", &version)
	readPins(t, "engine", &engine)
	readPins(t, "matrix", &matrix)

	h := sha256.New()
	for _, name := range sortedKeys(engine) {
		c := engine[name]
		fmt.Fprintf(h, "engine %s %d %+v\n", name, c.Cycles, c.Stats)
	}
	for _, name := range sortedKeys(matrix) {
		c := matrix[name]
		fmt.Fprintf(h, "matrix %s %d %+v %+v\n", name, c.Cycles, c.Mem, c.Cobra)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := modelHashes[version]
	switch {
	case !ok:
		t.Fatalf("model_version %d of %s has no hash: add %d: %q to modelHashes", version, pinsPath, version, got)
	case got != want:
		t.Fatalf("the measurements in %s hash to %s, not to model_version %d's %s: "+
			"if the model changed on purpose, bump model_version to %d and add %d: %q to modelHashes",
			pinsPath, got, version, want, version+1, version+1, got)
	}
}

// TestLedgerKeys pins the run-ledger key of the default daxpy session
// under every strategy on both machines, computed through serve.Spec as
// cobrad and cobra-run compute it. The model version does not cover these
// keys: they also move when the hashed configuration changes.
func TestLedgerKeys(t *testing.T) {
	got := map[string]string{}
	for _, machine := range []string{"smp", "numa"} {
		for _, strategy := range []string{"off", "monitor", "noprefetch", "excl", "adaptive", "bias", "multiversion", "causal", "layout"} {
			s := serve.Spec{Machine: machine, Strategy: strategy}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			key, err := s.Key()
			if err != nil {
				t.Fatal(err)
			}
			got[machine+"/"+strategy] = key
		}
	}
	if os.Getenv("REGEN_GOLDEN") != "" {
		writePins(t, "keys", got)
		return
	}
	var want map[string]string
	readPins(t, "keys", &want)
	for _, name := range sortedKeys(got) {
		if got[name] != want[name] {
			t.Errorf("key %s moved: got %s, pinned %q", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned keys, %d computed", len(want), len(got))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
