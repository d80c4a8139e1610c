package main

import (
	"testing"

	"repro/internal/serve"
)

// FuzzScenarioFlags fuzzes cobra-run's scenario flags: the -topology,
// -affinity and -migrate strings, parsed into a four-thread NUMA DAXPY
// spec as main parses them. Nothing may panic, and a spec that parses,
// normalizes and validates must have a key. The seed corpus is
// testdata/fuzz/FuzzScenarioFlags; `make fuzz-native` runs it.
func FuzzScenarioFlags(f *testing.F) {
	f.Fuzz(func(t *testing.T, topology, affinity, migrate string) {
		spec := serve.Spec{Workload: "daxpy", Threads: 4, Machine: "numa"}
		if parseScenarioFlags(&spec, topology, affinity, migrate) != nil {
			return
		}
		spec.Normalize()
		if spec.Validate() != nil {
			return
		}
		if _, err := spec.Key(); err != nil {
			t.Fatalf("-topology %q -affinity %q -migrate %q: valid spec has no key: %v", topology, affinity, migrate, err)
		}
	})
}
