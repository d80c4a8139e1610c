package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cobra"
)

// TestSpecEngineStrategies: each accepted strategy name validates and
// attaches the COBRA strategy and engine it always has, on both machine
// models: none for off, the adaptive trigger bound to the named registry
// engine for the pluggable ones. Every name hashes to its own session key.
func TestSpecEngineStrategies(t *testing.T) {
	want := map[string]struct {
		attached bool
		strategy cobra.Strategy
		engine   string // "" is the built-in default, not a registry lookup
	}{
		"off":          {},
		"monitor":      {true, cobra.StrategyOff, ""},
		"noprefetch":   {true, cobra.StrategyNoprefetch, ""},
		"excl":         {true, cobra.StrategyExcl, ""},
		"adaptive":     {true, cobra.StrategyAdaptive, ""},
		"bias":         {true, cobra.StrategyBias, ""},
		"multiversion": {true, cobra.StrategyAdaptive, "multiversion"},
		"causal":       {true, cobra.StrategyAdaptive, "causal"},
		"layout":       {true, cobra.StrategyAdaptive, "layout"},
	}
	for _, m := range []string{"smp", "numa"} {
		keys := map[string]string{}
		for name, w := range want {
			s := &Spec{Workload: "daxpy", Machine: m, Strategy: name}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			bc, err := s.buildConfig()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			if got := bc.Cobra != nil; got != w.attached {
				t.Fatalf("%s/%s: attached = %v, want %v", name, m, got, w.attached)
			}
			if bc.Cobra != nil && (bc.Cobra.Strategy != w.strategy || bc.Cobra.Engine != w.engine) {
				t.Fatalf("%s/%s: strategy %v engine %q, want %v %q", name, m, bc.Cobra.Strategy, bc.Cobra.Engine, w.strategy, w.engine)
			}
			key, err := s.Key()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			if prev, dup := keys[key]; dup {
				t.Fatalf("%s: strategies %s and %s share a ledger key", m, prev, name)
			}
			keys[key] = name
		}
	}
	s := &Spec{Workload: "daxpy", Strategy: "yolo"}
	s.Normalize()
	if err := s.Validate(); err == nil || err.Error() != `unknown strategy "yolo" (want off, monitor, noprefetch, excl, adaptive, bias, multiversion, causal or layout)` {
		t.Fatalf("unknown strategy error = %v", err)
	}
}

// TestSpecEngineKeyStability: the Engine field must be omitempty so every
// pre-engine spec (no engine selected) serializes — and therefore content-
// hashes — exactly as it did before the field existed.
func TestSpecEngineKeyStability(t *testing.T) {
	c := cobra.DefaultConfig(cobra.StrategyAdaptive)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "engine") {
		t.Fatalf("default config leaks the engine field into content hashes: %s", b)
	}
}

// TestSpecBigNUMATopologies: the 16- and 32-CPU NUMA machines opened by
// the MaxThreads bump validate and build end-to-end with the expected
// CPU count.
func TestSpecBigNUMATopologies(t *testing.T) {
	for _, n := range []int{16, 32} {
		s := &Spec{Workload: "daxpy", Threads: n, Machine: "numa"}
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatalf("numa threads=%d: %v", n, err)
		}
		bc, err := s.buildConfig()
		if err != nil {
			t.Fatalf("numa threads=%d: %v", n, err)
		}
		if bc.Machine.Mem.NumCPUs != n {
			t.Fatalf("numa threads=%d: machine has %d CPUs", n, bc.Machine.Mem.NumCPUs)
		}
	}
	s := &Spec{Workload: "daxpy", Threads: MaxThreads + 1, Machine: "numa"}
	s.Normalize()
	if err := s.Validate(); err == nil {
		t.Fatalf("threads=%d validated, want range error", MaxThreads+1)
	}
}

// TestSpecScenarioKeyStability: every scenario-matrix field (topology,
// placement, bind node, affinity, migration) must be omitempty all the
// way down into the hashed machine config, so a spec that leaves them
// unset serializes — and content-hashes — exactly as it did before the
// scenario matrix existed. "first-touch" is the same policy as unset and
// must share its key.
func TestSpecScenarioKeyStability(t *testing.T) {
	base := &Spec{Workload: "daxpy", Machine: "numa"}
	base.Normalize()
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	bc, err := base.buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(bc)
	if err != nil {
		t.Fatal(err)
	}
	enc := strings.ToLower(string(b))
	for _, field := range []string{"nodes", "placement", "bindnode", "migrations", "affinity"} {
		if strings.Contains(enc, field) {
			t.Fatalf("default build config leaks %q into content hashes: %s", field, b)
		}
	}

	ft := &Spec{Workload: "daxpy", Machine: "numa", Placement: "first-touch"}
	ft.Normalize()
	ftKey, err := ft.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ftKey != baseKey {
		t.Fatalf("placement=first-touch forked the ledger key: %s != %s", ftKey, baseKey)
	}

	// Every scenario knob must fork the key: they all change timing.
	variants := []*Spec{
		{Workload: "daxpy", Machine: "numa", Threads: 4, Topology: []NodeSpec{{CPUs: 1}, {CPUs: 3}}},
		{Workload: "daxpy", Machine: "numa", Placement: "interleave"},
		{Workload: "daxpy", Machine: "numa", Placement: "bind", BindNode: 1},
		{Workload: "daxpy", Machine: "numa", Affinity: []int{3, 2, 1, 0}},
		{Workload: "daxpy", Machine: "numa", MigrateAt: 1000, MigrateCPU: 0, MigrateNode: 1},
	}
	seen := map[string]string{baseKey: "base"}
	for i, v := range variants {
		v.Normalize()
		if err := v.Validate(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		key, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("variant %d shares ledger key with %s", i, prev)
		}
		seen[key] = fmt.Sprintf("variant %d", i)
	}
}

// TestSpecIrregularWorkloads: the three irregular kernels validate, build
// and hash to distinct keys, on both machine models.
func TestSpecIrregularWorkloads(t *testing.T) {
	keys := map[string]bool{}
	for _, w := range []string{"pointerchase", "hashjoin", "spmv"} {
		for _, m := range []string{"smp", "numa"} {
			s := &Spec{Workload: w, Machine: m, Threads: 2}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", w, m, err)
			}
			if _, err := s.buildWorkload(); err != nil {
				t.Fatalf("%s/%s: %v", w, m, err)
			}
			key, err := s.Key()
			if err != nil {
				t.Fatalf("%s/%s: %v", w, m, err)
			}
			if keys[key] {
				t.Fatalf("%s/%s: duplicate ledger key %s", w, m, key)
			}
			keys[key] = true
		}
	}
}

// TestSpecScenarioBuildConfig: the declarative fields land in the right
// places of the build config.
func TestSpecScenarioBuildConfig(t *testing.T) {
	s := &Spec{
		Workload: "spmv", Machine: "numa", Threads: 2,
		Topology:  []NodeSpec{{CPUs: 1, MemMB: 64}, {CPUs: 3}},
		Placement: "bind", BindNode: 1,
		Affinity:  []int{3, 0},
		MigrateAt: 5000, MigrateCPU: 3, MigrateNode: 0,
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bc, err := s.buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	mc := bc.Machine.Mem
	if mc.NumCPUs != 4 || len(mc.Nodes) != 2 || mc.Nodes[0].MemBytes != 64<<20 {
		t.Fatalf("mem config shape wrong: %+v", mc)
	}
	if mc.Placement != "bind" || mc.BindNode != 1 {
		t.Fatalf("placement not mapped: %+v", mc)
	}
	if len(bc.Affinity) != 2 || bc.Affinity[0] != 3 {
		t.Fatalf("affinity not mapped: %v", bc.Affinity)
	}
	if len(bc.Machine.Migrations) != 1 || bc.Machine.Migrations[0].AtCycle != 5000 {
		t.Fatalf("migration not mapped: %+v", bc.Machine.Migrations)
	}
	if _, err := s.Instantiate(nil, nil); err != nil {
		t.Fatalf("instantiate: %v", err)
	}
}

// FuzzSpecKey fuzzes the cobrad request boundary: a body decoded as
// handleSubmit decodes it, then Normalize, Validate, and Key for a valid
// spec. None of it may panic; a valid spec must have a key and a machine
// configuration that validates, whose every node carries exactly its
// declared mem_mb MiB; and a valid spec, re-encoded after Normalize and
// submitted again, must validate to the same key. The seed corpus is
// testdata/fuzz/FuzzSpecKey; `make fuzz-native` runs it.
func FuzzSpecKey(f *testing.F) {
	// submit runs body through handleSubmit's path; ok is false for a
	// body the server rejects with a 400.
	submit := func(t *testing.T, body []byte) (s Spec, key string, ok bool) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return s, "", false
		}
		s = req.Spec
		s.Normalize()
		if s.Validate() != nil {
			return s, "", false
		}
		if key, err = s.Key(); err != nil {
			t.Fatalf("valid spec %+v has no key: %v", s, err)
		}
		return s, key, true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, key, ok := submit(t, body)
		if !ok {
			return
		}
		bc, err := s.buildConfig()
		if err != nil {
			t.Fatalf("valid spec %+v: %v", s, err)
		}
		if err := bc.Machine.Mem.Validate(); err != nil {
			t.Fatalf("valid spec %+v builds an invalid machine: %v", s, err)
		}
		for i, n := range bc.Machine.Mem.Nodes {
			if mb := s.Topology[i].MemMB; n.MemBytes>>20 != uint64(mb) || n.MemBytes&(1<<20-1) != 0 {
				t.Fatalf("valid spec %+v: node %d has %d bytes for mem_mb %d", s, i, n.MemBytes, mb)
			}
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		_, again, ok := submit(t, enc)
		if !ok {
			t.Fatalf("normalized spec %s no longer validates", enc)
		}
		if again != key {
			t.Fatalf("normalized spec %s re-keys: %s, want %s", enc, again, key)
		}
	})
}

// sessionBuildSpec is the largest DAXPY session serve-mix executes: a
// 16 KB working set, four repetitions, on the 4-CPU Altix under the
// adaptive loop.
func sessionBuildSpec(t testing.TB) Spec {
	s := Spec{Workload: "daxpy", Threads: 4, Machine: "numa", Strategy: "adaptive", DaxpyWS: 16 << 10, DaxpyReps: 4}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildSession builds and runs s from scratch, as a cobrad worker does
// without a build cache.
func buildSession(t testing.TB, s *Spec) {
	inst, err := s.Instantiate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Measure(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBuildAllocates: a session allocates host memory for the
// memory system its program touches, not for the whole machine. Building
// and running sessionBuildSpec allocates under 1 MiB (0.59 MiB on
// linux/amd64); with its caches and 1 MB backing chunks allocated whole it
// took 4.43 MiB.
func TestSessionBuildAllocates(t *testing.T) {
	s := sessionBuildSpec(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildSession(t, &s)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("session allocated %.2f MiB", float64(got)/(1<<20))
	if got >= 1<<20 {
		t.Fatalf("session allocated %.2f MiB, want under 1 MiB", float64(got)/(1<<20))
	}
}

// BenchmarkSessionBuild is the session-build layer: one sessionBuildSpec
// session built and run from scratch (compile, machine, OpenMP runtime,
// COBRA, run) per op. B/op is the host memory a small session costs.
func BenchmarkSessionBuild(b *testing.B) {
	s := sessionBuildSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSession(b, &s)
	}
}
