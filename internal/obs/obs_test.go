package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNilSafety drives every exported method through nil receivers —
// the disabled state must be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Trace() != nil || o.SampleTrace() != nil || o.Metrics() != nil || o.Decisions() != nil {
		t.Fatal("nil observer must return nil surfaces")
	}

	var tr *Tracer
	tr.Instant("c", "n", 1, 10, nil)
	tr.Span("c", "n", 1, 10, 20, nil)
	tr.Counter("n", 1, 10, map[string]float64{"v": 1})
	tr.ThreadName(1, "cpu0")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must report disabled/empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output not valid JSON: %v", err)
	}

	var reg *Registry
	reg.Counter("c").Add(5)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h").Observe(3)
	reg.Snapshot(0, 100)
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Value() != 0 ||
		reg.Histogram("h").Count() != 0 || reg.Dump().Windows != nil || reg.CounterNames() != nil {
		t.Fatal("nil registry must report disabled/zero")
	}
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}

	var dl *DecisionLog
	dl.Record(10, 0x100, 0, StateCandidate, "trigger", Evidence{})
	if dl.Decisions() != nil || dl.State(0x100) != "" || dl.Violations() != nil {
		t.Fatal("nil decision log must report disabled/empty")
	}
	buf.Reset()
	if err := dl.Explain(&buf); err != nil {
		t.Fatalf("nil decision log Explain: %v", err)
	}

	if err := WriteArtifacts(t.TempDir(), "k", nil); err != nil {
		t.Fatalf("nil observer WriteArtifacts: %v", err)
	}
}

func TestObserverConfig(t *testing.T) {
	o := New(Config{Trace: true, Metrics: true, Decisions: true})
	if o.Trace() == nil || o.Metrics() == nil || o.Decisions() == nil {
		t.Fatal("enabled surfaces must be non-nil")
	}
	if o.SampleTrace() != nil {
		t.Fatal("SampleTrace must be nil unless SampleEvents is set")
	}
	o2 := New(Config{Trace: true, SampleEvents: true})
	if o2.SampleTrace() != o2.Trace() {
		t.Fatal("SampleTrace must alias the tracer when SampleEvents is set")
	}
	o3 := New(Config{})
	if o3.Trace() != nil || o3.Metrics() != nil || o3.Decisions() != nil {
		t.Fatal("empty config must enable nothing")
	}
}

// TestTraceJSON checks the exported document is valid JSON in Chrome
// trace_event object format with the recorded events intact.
func TestTraceJSON(t *testing.T) {
	tr := NewTracer(0)
	tr.ThreadName(0, "cpu0")
	tr.Span("window", "window 0", TIDOptimizer, 0, 50_000, map[string]any{"ipc": 1.5})
	tr.Instant("trigger", "trigger", TIDOptimizer, 50_000, map[string]any{"region": "0x100"})
	tr.Counter("ipc", 0, 50_000, map[string]float64{"cpu0": 1.5})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4 (1 meta + 3)", len(doc.TraceEvents))
	}
	// Metadata first, then events in emission order.
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event must be metadata, got ph=%q", doc.TraceEvents[0].Ph)
	}
	span := doc.TraceEvents[1]
	if span.Ph != "X" || span.TS != 0 || span.Dur != 50_000 || span.PID != PID || span.TID != TIDOptimizer {
		t.Fatalf("bad span event: %+v", span)
	}
	if doc.TraceEvents[2].Ph != "i" || doc.TraceEvents[2].S != "t" {
		t.Fatalf("bad instant event: %+v", doc.TraceEvents[2])
	}
	if doc.TraceEvents[3].Ph != "C" {
		t.Fatalf("bad counter event: %+v", doc.TraceEvents[3])
	}
}

func TestTraceCapAndDrop(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Instant("c", "e", 0, int64(i), nil)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	// Metadata is exempt from the cap.
	tr.ThreadName(7, "late")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped":2`) {
		t.Fatalf("dropped count missing from otherData:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"late"`) {
		t.Fatal("metadata recorded after cap must still be written")
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := NewTracer(0)
	tr.Span("c", "n", 0, 100, 50, nil)
	e := tr.Events()[0]
	if e.TS != 100 || e.Dur != 0 {
		t.Fatalf("want zero-length span at 100, got ts=%d dur=%d", e.TS, e.Dur)
	}
}

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("triggers")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("triggers") != c {
		t.Fatal("Counter must return the same instance per name")
	}
	r.Gauge("ipc").Set(1.25)
	if got := r.Gauge("ipc").Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
	h := r.Histogram("window_cycles")
	for _, v := range []float64{10, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if got, want := h.Mean(), 370.0; got != want {
		t.Fatalf("hist mean = %v, want %v", got, want)
	}

	r.Snapshot(0, 50_000)
	c.Inc()
	r.Snapshot(1, 100_000)
	snaps := r.Dump().Windows
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Counters["triggers"] != 3 || snaps[1].Counters["triggers"] != 4 {
		t.Fatalf("snapshots must freeze counter values: %+v", snaps)
	}
	if snaps[1].Window != 1 || snaps[1].Cycle != 100_000 {
		t.Fatalf("snapshot window/cycle wrong: %+v", snaps[1])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("registry dump not valid JSON: %v", err)
	}
	if d.Counters["triggers"] != 4 || len(d.Windows) != 2 {
		t.Fatalf("bad dump: %+v", d)
	}
	if got := r.CounterNames(); len(got) != 1 || got[0] != "triggers" {
		t.Fatalf("CounterNames = %v", got)
	}
}

func TestLegalTransitions(t *testing.T) {
	legal := [][2]PatchState{
		{"", StateCandidate},
		{StateCandidate, StateDeployed},
		{StateCandidate, StateCandidate},
		{StateDeployed, StateKept},
		{StateDeployed, StateRolledBack},
		{StateKept, StateKept},
		{StateKept, StateRolledBack},
		{StateRolledBack, StateCandidate},
		{StateRolledBack, StateBlocked},
		{StateDeployed, StateSwitched},
		{StateKept, StateSwitched},
		{StateSwitched, StateSwitched},
		{StateSwitched, StateKept},
		{StateSwitched, StateRolledBack},
		{StateRolledBack, StateSwitched},
	}
	for _, tc := range legal {
		if !LegalTransition(tc[0], tc[1]) {
			t.Errorf("%q -> %q should be legal", tc[0], tc[1])
		}
	}
	illegal := [][2]PatchState{
		{"", StateDeployed},
		{"", StateKept},
		{StateCandidate, StateKept},
		{StateDeployed, StateCandidate},
		{StateDeployed, StateBlocked},
		{StateKept, StateCandidate},
		{StateKept, StateBlocked},
		{StateRolledBack, StateDeployed},
		{StateBlocked, StateCandidate},
		{StateBlocked, StateBlocked},
		{"", StateSwitched},
		{StateCandidate, StateSwitched},
		{StateSwitched, StateCandidate},
		{StateSwitched, StateBlocked},
		{StateBlocked, StateSwitched},
	}
	for _, tc := range illegal {
		if LegalTransition(tc[0], tc[1]) {
			t.Errorf("%q -> %q should be illegal", tc[0], tc[1])
		}
	}
}

func TestDecisionLogAuditTrail(t *testing.T) {
	l := NewDecisionLog()
	const region = uint64(0x4000_1000)
	l.Record(100, region, 0, StateCandidate, "trigger", Evidence{CoherentShare: 0.3, BusHitm: 40})
	l.Record(100, region, 0, StateDeployed, "deploy", Evidence{Rewrite: "nop"})
	l.Record(200, region, 2, StateRolledBack, "regressed", Evidence{
		BaselineIPC: 1.4, PatchedIPC: 1.1, Tolerance: 0.03, ActiveWindows: 2, Rewrite: "nop",
	})
	l.Record(300, region, 4, StateCandidate, "escalate", Evidence{Rewrite: "excl"})
	l.Record(300, region, 4, StateDeployed, "deploy", Evidence{Rewrite: "excl"})
	l.Record(400, region, 6, StateKept, "improved", Evidence{
		BaselineIPC: 1.4, PatchedIPC: 1.6, ActiveWindows: 2, Rewrite: "excl",
	})

	if got := l.State(region); got != StateKept {
		t.Fatalf("final state = %q, want kept", got)
	}
	if v := l.Violations(); len(v) != 0 {
		t.Fatalf("legal history reported violations: %v", v)
	}
	ds := l.Decisions()
	if len(ds) != 6 {
		t.Fatalf("got %d decisions, want 6", len(ds))
	}
	// From chaining: each decision's From is the prior To.
	if ds[0].From != "" || ds[2].From != StateDeployed || ds[3].From != StateRolledBack {
		t.Fatalf("From chaining broken: %+v", ds)
	}

	var buf bytes.Buffer
	if err := l.Explain(&buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	for _, want := range []string{"candidate", "deployed", "rolled_back", "kept", "coherent_share=0.3000", "baseline=1.4000", "region 0x40001000: kept"} {
		if !strings.Contains(report, want) {
			t.Errorf("Explain report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "VIOLATIONS") {
		t.Errorf("legal history must not print violations:\n%s", report)
	}
}

func TestDecisionLogDetectsIllegalWalk(t *testing.T) {
	l := NewDecisionLog()
	l.Record(10, 0x100, 0, StateKept, "bogus", Evidence{}) // "" -> kept is illegal
	l.Record(20, 0x100, 0, StateBlocked, "bogus", Evidence{})
	v := l.Violations()
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	var buf bytes.Buffer
	if err := l.Explain(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LIFECYCLE VIOLATIONS") {
		t.Fatalf("Explain must surface violations:\n%s", buf.String())
	}
}

func TestWriteArtifacts(t *testing.T) {
	o := New(Config{Trace: true, Metrics: true, Decisions: true})
	o.Trace().Instant("c", "e", 0, 1, nil)
	o.Metrics().Counter("x").Inc()
	o.Decisions().Record(1, 0x100, 0, StateCandidate, "trigger", Evidence{})

	dir := t.TempDir()
	key := "0123456789abcdef0123456789abcdef" // full hash — must truncate
	if err := WriteArtifacts(dir, key, o); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"0123456789abcdef.trace.json",
		"0123456789abcdef.metrics.json",
		"0123456789abcdef.decisions.txt",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
		if strings.HasSuffix(name, ".json") {
			var v any
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatalf("artifact %s not valid JSON: %v", name, err)
			}
		}
	}

	// Trace-only observer writes only the trace artifact.
	o2 := New(Config{Trace: true})
	o2.Trace().Instant("c", "e", 0, 1, nil)
	dir2 := t.TempDir()
	if err := WriteArtifacts(dir2, "key/../evil", o2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "key_.._evil.trace.json" {
		t.Fatalf("unexpected artifacts: %v", entries)
	}
}

// TestRegistryDumpSnapshot: the exported Dump mirrors WriteJSON's shape —
// final values plus windows — and is nil-safe, so the service /metricsz
// endpoint can embed it without special cases.
func TestRegistryDumpSnapshot(t *testing.T) {
	var nilReg *Registry
	if d := nilReg.Dump(); d.Counters != nil || d.Gauges != nil || len(d.Windows) != 0 {
		t.Fatalf("nil registry dump not zero: %+v", d)
	}
	r := NewRegistry()
	r.Counter("serve.sessions").Add(3)
	r.Gauge("serve.queue_depth").Set(2)
	r.Histogram("serve.cycles").Observe(100)
	r.Snapshot(1, 5000)
	d := r.Dump()
	if d.Counters["serve.sessions"] != 3 {
		t.Fatalf("counter in dump = %d, want 3", d.Counters["serve.sessions"])
	}
	if d.Gauges["serve.queue_depth"] != 2 {
		t.Fatalf("gauge in dump = %v, want 2", d.Gauges["serve.queue_depth"])
	}
	if h, ok := d.Histograms["serve.cycles"]; !ok || h.Count != 1 {
		t.Fatalf("histogram in dump = %+v, want count 1", h)
	}
	if len(d.Windows) != 1 || d.Windows[0].Cycle != 5000 {
		t.Fatalf("windows in dump = %+v, want one at cycle 5000", d.Windows)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	t.Run("empty and nil", func(t *testing.T) {
		var h *Histogram
		if h.Quantile(0.5) != 0 {
			t.Fatal("nil histogram quantile != 0")
		}
		if q := NewRegistry().Histogram("h").Quantile(0.5); q != 0 {
			t.Fatalf("empty histogram quantile = %v", q)
		}
	})

	t.Run("single value pins all quantiles", func(t *testing.T) {
		h := NewRegistry().Histogram("h")
		h.Observe(7)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 7 {
				t.Fatalf("Quantile(%v) = %v, want 7 (min==max clamp)", q, got)
			}
		}
	})

	t.Run("interpolates within a bucket", func(t *testing.T) {
		h := NewRegistry().Histogram("h")
		// 100 observations spread over (4, 8]: one pow2 bucket.
		for i := 1; i <= 100; i++ {
			h.Observe(4 + 4*float64(i)/100)
		}
		// p50 should land mid-bucket, near 6; interpolation is linear in
		// the bucket so the error bound is the clamp, not the estimate.
		if p50 := h.Quantile(0.50); p50 < 5.5 || p50 > 6.5 {
			t.Fatalf("p50 = %v, want ~6", p50)
		}
		if p99 := h.Quantile(0.99); p99 < 7.5 || p99 > 8 {
			t.Fatalf("p99 = %v, want near 8", p99)
		}
	})

	t.Run("monotone across buckets and clamped to extremes", func(t *testing.T) {
		h := NewRegistry().Histogram("h")
		for _, v := range []float64{-2, 0.5, 0.5, 3, 3, 3, 40, 40, 900} {
			h.Observe(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, v, prev)
			}
			if v < -2 || v > 900 {
				t.Fatalf("Quantile(%v) = %v escapes [min, max]", q, v)
			}
			prev = v
		}
		if h.Quantile(1) != 900 {
			t.Fatalf("p100 = %v, want max", h.Quantile(1))
		}
	})

	t.Run("stat carries p50/p95/p99 into dumps", func(t *testing.T) {
		r := NewRegistry()
		h := r.Histogram("lat")
		for i := 1; i <= 1000; i++ {
			h.Observe(float64(i))
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var d Dump
		if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		s, ok := d.Histograms["lat"]
		if !ok {
			t.Fatal("histogram missing from dump")
		}
		if s.P50 != h.Quantile(0.50) || s.P95 != h.Quantile(0.95) || s.P99 != h.Quantile(0.99) {
			t.Fatalf("dump quantiles %v/%v/%v disagree with Quantile()", s.P50, s.P95, s.P99)
		}
		if !(s.P50 < s.P95 && s.P95 < s.P99 && s.P99 <= 1000) {
			t.Fatalf("quantile ordering broken: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
		}
		// With 1000 uniform observations the pow2 estimate for p50 must at
		// least land in the right bucket (256, 512].
		if s.P50 <= 256 || s.P50 > 512 {
			t.Fatalf("p50 = %v, want within (256, 512]", s.P50)
		}
	})
}
