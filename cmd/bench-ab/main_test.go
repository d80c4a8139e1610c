package main

import (
	"bytes"
	"strings"
	"testing"
)

var (
	lowerMetric  = metricDef{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.25}
	higherMetric = metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{9, 1, 5, 3, 7}, [3]float64{3, 5, 7}},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{3.25, 5.5, 7.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	ref := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10, 10.1}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(ref))
		for i, v := range ref {
			out[i] = v * f
		}
		return out
	}
	nineWins := scaled(0.8)
	nineWins[3] = 10.2 // loses pair 4
	eightWins := scaled(0.8)
	eightWins[3], eightWins[5] = 10.2, 10.1
	wide := []float64{10, 4, 16, 5, 15, 6, 14, 4, 16, 10}
	for _, tc := range []struct {
		name        string
		d           metricDef
		ref, change []float64
		wins        int
		verdict     string
	}{
		{"better in every pair", lowerMetric, ref, scaled(0.8), 10, "better"},
		{"better in 9 of 10", lowerMetric, ref, nineWins, 9, "better"},
		{"8 of 10 is not a gain", lowerMetric, ref, eightWins, 8, "within bound"},
		{"gain inside the parent's spread", lowerMetric, ref, scaled(0.995), 10, "within bound"},
		{"beyond the bound", lowerMetric, ref, scaled(1.3), 0, "worse"},
		{"slower but inside the bound", lowerMetric, ref, scaled(1.2), 0, "within bound"},
		{"ties count for neither side", lowerMetric, ref, ref, 0, "within bound"},
		{"spread wider than the bound", lowerMetric, ref, wide, 5, "unresolved"},
		{"higher is better", higherMetric, ref, scaled(1.2), 10, "better"},
		{"higher metric falls past the bound", higherMetric, ref, scaled(0.7), 0, "worse"},
		{"higher metric falls inside the bound", higherMetric, ref, scaled(0.8), 0, "within bound"},
	} {
		s := summarize(tc.d, tc.ref, tc.change)
		if s.wins != tc.wins || s.n != len(tc.ref) || s.verdict != tc.verdict {
			t.Errorf("%s: wins %d/%d verdict %q, want %d/%d %q", tc.name, s.wins, s.n, s.verdict, tc.wins, len(tc.ref), tc.verdict)
		}
	}
}

// TestSummarizeAllBetterIsNotUnresolved: a spread wider than the bound
// still resolves when every change run beats every parent run.
func TestSummarizeAllBetterIsNotUnresolved(t *testing.T) {
	ref := []float64{20, 30, 40, 50}
	change := []float64{1, 5, 10, 19}
	s := summarize(lowerMetric, ref, change)
	if s.verdict != "better" {
		t.Fatalf("verdict %q, want better", s.verdict)
	}
	if s.ratio != 7.5/35 {
		t.Fatalf("ratio %v, want %v", s.ratio, 7.5/35)
	}
}

func TestParseLast(t *testing.T) {
	out := []byte(`{"run_record":{"seed":1}}` + "\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_s":{"value":0.25,"unit":"s"}}}` + "\n\n")
	r, err := parseLast(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Metrics["op_p50_s"].Value != 0.25 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"", "not json", `{"run_record":{}}`} {
		if _, err := parseLast([]byte(bad)); err == nil {
			t.Errorf("parseLast(%q) accepted", bad)
		}
	}
}

// TestReportWithholdsVerdictOnFailedRun: one run with a failed operation
// removes the verdict column and makes the report not ok.
func TestReportWithholdsVerdictOnFailedRun(t *testing.T) {
	run := func(v float64, correct bool, failed int) runResult {
		r := runResult{Correct: correct, Failed: failed}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"op_p50_s": {Value: v}}
		return r
	}
	good := []pair{{seed: 1, runs: [2]runResult{run(1, true, 0), run(0.5, true, 0)}}}
	var buf bytes.Buffer
	if !report(&buf, "w", "HEAD~1", []metricDef{lowerMetric}, good) || !strings.Contains(buf.String(), "| better |") {
		t.Fatalf("clean runs: report not ok or verdict missing:\n%s", buf.String())
	}
	for _, bad := range []runResult{run(0.5, false, 0), run(0.5, true, 2)} {
		buf.Reset()
		ps := []pair{{seed: 1, runs: [2]runResult{run(1, true, 0), bad}}}
		if report(&buf, "w", "HEAD~1", []metricDef{lowerMetric}, ps) {
			t.Fatalf("report ok with change run %+v", bad)
		}
		if out := buf.String(); strings.Contains(out, "| better |") || !strings.Contains(out, "no verdict") {
			t.Fatalf("verdict printed for a failed run:\n%s", out)
		}
	}
}
