package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		percent float64
	}{
		{1, 1, 100},         // one sample: the maximum
		{7, 7, 100},         // below every rung
		{100, 90, 90},       // p90 leaves exactly 10 beyond
		{999, 950, 95},      // p99 would leave 9
		{1000, 990, 99},     // p99 leaves exactly 10
		{9999, 9900, 99},    // p99.9 would leave 9
		{10000, 9990, 99.9}, // p99.9 leaves exactly 10
	} {
		v, p := tail(seq(tc.n))
		if v != tc.value || p != tc.percent {
			t.Errorf("tail(n=%d) = (%v, p%v), want (%v, p%v)", tc.n, v, p, tc.value, tc.percent)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("tail(nil) = (%v, %v)", v, p)
	}
}

func TestGoldenBlock(t *testing.T) {
	text := "Figure 5(a): x\nrow a\n\nCOBRA activity (SMP)\n\nhdr\nsmp row\n\n" +
		"Figure 5(b): y\nrow b\n\nFigure 6(b): z\nrow c\n\nCOBRA activity (NUMA)\n\nhdr\nnuma row 1\nnuma row 2\n\n"
	got, err := goldenBlock(text, "Figure 5(b):", "COBRA activity (")
	if err != nil {
		t.Fatal(err)
	}
	want := "Figure 5(b): y\nrow b\n\nFigure 6(b): z\nrow c\n\nCOBRA activity (NUMA)\n\nhdr\nnuma row 1\nnuma row 2\n"
	if got != want {
		t.Errorf("block = %q, want %q", got, want)
	}
	// A table running to the end of the text without a blank line.
	if got, _ := goldenBlock(strings.TrimSuffix(text, "\n"), "Figure 5(b):", "COBRA activity ("); got != want {
		t.Errorf("unterminated block = %q", got)
	}
	// A first marker that only appears mid-line does not count.
	if _, err := goldenBlock("see Figure 5(b): here\n", "Figure 5(b):", "COBRA"); err == nil {
		t.Error("mid-line marker accepted")
	}
	if _, err := goldenBlock(text, "Figure 9(z):", "COBRA activity ("); err == nil {
		t.Error("missing marker accepted")
	}

	data, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Skip("committed golden not present:", err)
	}
	block, err := goldenBlock(string(data), "Figure 5(b):", "COBRA activity (")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "Figure 5(b):") || !strings.HasPrefix(lines[len(lines)-1], "cg         prefetch.excl") {
		t.Errorf("committed block runs %q .. %q", lines[0], lines[len(lines)-1])
	}
}

func TestErrorAccounting(t *testing.T) {
	p := &pass{attempted: 3}
	p.fail("first %d", 1)
	r := newResult()
	r.attempted, r.failed = p.attempted, p.failed
	r.fail("check after timing")
	r.e2e["op_p50_s"] = math.NaN()
	out := r.output(false)
	if out["correct"] != false || out["attempted"] != 4 || out["failed"] != 2 {
		t.Errorf("accounting = correct %v attempted %v failed %v, want false 4 2", out["correct"], out["attempted"], out["failed"])
	}
	metrics := out["metrics"].(map[string]metricValue)
	if len(metrics) != len(endToEnd) || metrics["op_p50_s"].Value != 0 {
		t.Errorf("metrics = %v", metrics)
	}
	clean := newResult().output(true)
	if clean["correct"] != false || clean["attempted"] != 1 {
		t.Errorf("nothing attempted must not read correct: %v", clean)
	}
	if n := len(clean["metrics"].(map[string]metricValue)); n != len(perLayer) {
		t.Errorf("per-layer output has %d metrics, want %d", n, len(perLayer))
	}
	for i := 0; i < 30; i++ {
		p.fail("more")
	}
	if p.failed != 31 || len(p.failures) != 20 {
		t.Errorf("failed %d with %d messages kept, want 31 and 20", p.failed, len(p.failures))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mem.(*Domain).Access":                 "mem",
		"repro/internal/machine.(*CPU).stepBundle":            "machine",
		"repro/internal/sched.executeJob[go.shape.struct {}]": "sched",
		"repro/internal/serve.(*Server).sessionJob.func1":     "serve",
		"repro/internal/npb.Build":                            "other",
		"main.(*sweep).once":                                  "other",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/syscall.Syscall6":                   "runtime",
		"encoding/json.(*encodeState).marshal":                "stdlib",
		"net/http.(*conn).serve":                              "stdlib",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	return appendUvarint(appendUvarint(b, uint64(field<<3)), v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = appendUvarint(b, uint64(field<<3|2))
	return append(appendUvarint(b, uint64(len(p))), p...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestLeafSamples(t *testing.T) {
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = appendUvarint(b, x)
		}
		return b
	}
	var prof pb
	prof = prof.bytes(6, nil) // string_table[0] = ""
	prof = prof.bytes(6, []byte("repro/internal/mem.(*Domain).Access"))
	prof = prof.bytes(6, []byte("runtime.mallocgc"))
	prof = prof.bytes(6, []byte("repro/internal/machine.(*CPU).exec"))
	prof = prof.bytes(5, pb(nil).varint(1, 1).varint(2, 1))
	prof = prof.bytes(5, pb(nil).varint(1, 2).varint(2, 2))
	prof = prof.bytes(5, pb(nil).varint(1, 3).varint(2, 3))
	// Location 10 inlines mem into machine: its first line is the leaf.
	prof = prof.bytes(4, pb(nil).varint(1, 10).bytes(4, pb(nil).varint(1, 1)).bytes(4, pb(nil).varint(1, 3)))
	prof = prof.bytes(4, pb(nil).varint(1, 20).bytes(4, pb(nil).varint(1, 2)))
	prof = prof.bytes(4, pb(nil).varint(1, 30).bytes(4, pb(nil).varint(1, 3)))
	// Samples: packed location ids (leaf first), values (count first).
	prof = prof.bytes(2, pb(nil).bytes(1, packed(10, 30)).bytes(2, packed(3, 30000000)))
	prof = prof.bytes(2, pb(nil).bytes(1, packed(20, 10)).bytes(2, packed(1, 10000000)))
	// An unpacked sample.
	prof = prof.bytes(2, pb(nil).varint(1, 30).varint(2, 4).varint(2, 40000000))

	leaves, err := leafSamples(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"repro/internal/mem.(*Domain).Access": 3,
		"runtime.mallocgc":                    1,
		"repro/internal/machine.(*CPU).exec":  4,
	}
	if !reflect.DeepEqual(leaves, want) {
		t.Errorf("leaves = %v, want %v", leaves, want)
	}
	shares := sharesByModule(leaves)
	if shares["mem"] != 3.0/8 || shares["runtime"] != 1.0/8 || shares["machine"] != 4.0/8 || shares["serve"] != 0 {
		t.Errorf("shares = %v", shares)
	}
	if _, err := leafSamples(prof[:len(prof)-3]); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestGenerateMix(t *testing.T) {
	const clients, per = 2, 200
	a, err := generateMix(7, clients, per)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateMix(7, clients, per)
	c, _ := generateMix(8, clients, per)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same requests")
	}
	owner := map[string]int{}
	for cl, reqs := range a {
		if len(reqs) != per {
			t.Fatalf("client %d has %d requests", cl, len(reqs))
		}
		for i, rq := range reqs {
			if rq.exec != (i%execEvery == 0) {
				t.Errorf("client %d request %d: exec %v", cl, i, rq.exec)
			}
			if rq.exec {
				if _, dup := owner[rq.key]; dup {
					t.Errorf("key %.16s executed twice", rq.key)
				}
				owner[rq.key] = cl
				continue
			}
			if o, ok := owner[rq.key]; !ok || o != cl {
				t.Errorf("client %d request %d re-requests a key it did not execute first", cl, i)
			}
			var sub serve.SubmitRequest
			if err := json.Unmarshal(rq.body, &sub); err != nil || rq.follow || rq.fetch != nil || sub.Artifacts != (serve.ArtifactConfig{}) {
				t.Errorf("ledger-hit request asks for artifacts: %s", rq.body)
			}
		}
		if reqs[execEvery].spec.Workload != "hashjoin" {
			t.Errorf("client %d second executed spec is %s, want hashjoin", cl, reqs[execEvery].spec.Workload)
		}
	}
}
