package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
)

// Registry holds named counters, gauges, and histograms, and per-window
// snapshots of all of them. A nil *Registry is the disabled state. Like
// the tracer it is single-goroutine: one registry per machine instance.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	snapshots  []WindowSnapshot

	// bus, when attached, receives one KindWindow event per Snapshot —
	// the live counterpart of the Windows time series in the dump.
	bus *EventBus
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// AttachBus routes every future Snapshot to b as a live KindWindow
// event (nil-safe on both sides; attaching nil detaches).
func (r *Registry) AttachBus(b *EventBus) {
	if r != nil {
		r.bus = b
	}
}

// Counter is a monotonically increasing int64. A nil *Counter (from a
// nil registry) is a no-op, so instrumented code can hold counters
// unconditionally.
type Counter struct {
	name string
	v    int64
}

// Counter returns the named counter, creating it on first use. Returns
// nil when the registry is disabled.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins float64.
type Gauge struct {
	name string
	v    float64
	set  bool
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// when the registry is disabled.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v, g.set = v, true
	}
}

// Value returns the last set value (0 for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates float64 observations, keeping count/sum/min/max
// and power-of-two buckets over the observation magnitude. Buckets are
// enough to see the shape of cycle-domain latencies without configuring
// bounds per metric.
type Histogram struct {
	name    string
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets map[int]int64 // key: ceil(log2(v)) clamped at 0; -1 for v <= 0
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil when the registry is disabled.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{name: name, buckets: make(map[int]int64)}
		r.histograms[name] = h
	}
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v float64) int {
	if v <= 0 {
		return -1
	}
	b := int(math.Ceil(math.Log2(v)))
	if b < 0 {
		b = 0
	}
	return b
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the power-of-two bucket holding the target rank,
// clamped to the observed [min, max]. The pow2 bounds cap the relative
// error at the bucket width — coarse, but configuration-free and exact
// at the extremes, which is what a latency dashboard needs. Returns 0
// on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	// Buckets in ascending key order: -1 (v <= 0), then 0, 1, 2, ...
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var cum float64
	for _, k := range keys {
		c := float64(h.buckets[k])
		if cum+c >= rank {
			var lo, hi float64
			switch {
			case k < 0:
				lo, hi = math.Min(h.min, 0), 0
			case k == 0:
				lo, hi = 0, 1
			default:
				hi = float64(int64(1) << uint(k))
				lo = hi / 2
			}
			pos := 0.0
			if c > 0 {
				pos = (rank - cum) / c
			}
			v := lo + pos*(hi-lo)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum += c
	}
	return h.max
}

// HistogramStat is the exported summary of one histogram. P50/P95/P99
// are quantile estimates interpolated from the pow2 buckets (see
// Histogram.Quantile); they surface in every registry dump — /metricsz,
// WriteJSON, window snapshots.
type HistogramStat struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	P50     float64          `json:"p50"`
	P95     float64          `json:"p95"`
	P99     float64          `json:"p99"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // "le_2^k" -> count
}

func (h *Histogram) stat() HistogramStat {
	s := HistogramStat{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	if len(h.buckets) > 0 {
		s.Buckets = make(map[string]int64, len(h.buckets))
		for k, n := range h.buckets {
			s.Buckets[bucketLabel(k)] = n
		}
	}
	return s
}

func bucketLabel(k int) string {
	if k < 0 {
		return "le_0"
	}
	// label by the inclusive upper bound 2^k
	v := int64(1) << uint(k)
	return "le_" + itoa(v)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// WindowSnapshot freezes every metric value at the end of one profiling
// window. Snapshots are what make the registry diffable: the JSON dump is
// a time series in the cycle domain.
type WindowSnapshot struct {
	Window     int                      `json:"window"`
	Cycle      int64                    `json:"cycle"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot records the current value of every metric as the snapshot for
// window (an ordinal) closing at cycle.
func (r *Registry) Snapshot(window int, cycle int64) {
	if r == nil {
		return
	}
	s := WindowSnapshot{Window: window, Cycle: cycle}
	s.Counters, s.Gauges, s.Histograms = r.values()
	r.snapshots = append(r.snapshots, s)
	if r.bus != nil {
		ev := WindowEvent{WindowSnapshot: s}
		if n := len(r.snapshots); n >= 2 && len(s.Counters) > 0 {
			prev := r.snapshots[n-2].Counters
			ev.CounterDeltas = make(map[string]int64, len(s.Counters))
			for name, v := range s.Counters {
				if d := v - prev[name]; d != 0 {
					ev.CounterDeltas[name] = d
				}
			}
			if len(ev.CounterDeltas) == 0 {
				ev.CounterDeltas = nil
			}
		} else if len(s.Counters) > 0 {
			ev.CounterDeltas = s.Counters
		}
		r.bus.Publish(KindWindow, cycle, ev)
	}
}

// Dump is the exported JSON shape of a registry: final values plus the
// per-window time series.
type Dump struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
	Windows    []WindowSnapshot         `json:"windows,omitempty"`
}

func (r *Registry) dump() Dump {
	d := Dump{Windows: r.snapshots}
	d.Counters, d.Gauges, d.Histograms = r.values()
	return d
}

// values copies the current value of every counter, every set gauge and
// every observed histogram. A map is nil only when no metric of its kind
// was ever registered.
func (r *Registry) values() (counters map[string]int64, gauges map[string]float64, histograms map[string]HistogramStat) {
	if len(r.counters) > 0 {
		counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			counters[n] = c.v
		}
	}
	if len(r.gauges) > 0 {
		gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			if g.set {
				gauges[n] = g.v
			}
		}
	}
	if len(r.histograms) > 0 {
		histograms = make(map[string]HistogramStat, len(r.histograms))
		for n, h := range r.histograms {
			if h.count > 0 {
				histograms[n] = h.stat()
			}
		}
	}
	return counters, gauges, histograms
}

// Dump snapshots the registry into its exported JSON shape: final values
// plus the per-window time series. A nil registry dumps the zero Dump.
// This is the programmatic form of WriteJSON — service endpoints
// (/metricsz) embed it in larger response bodies, and callers that hold a
// lock around a shared registry can snapshot under it and serialize
// outside it.
func (r *Registry) Dump() Dump {
	if r == nil {
		return Dump{}
	}
	return r.dump()
}

// WriteJSON writes the registry dump as indented JSON. encoding/json
// serializes maps with sorted keys, so output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	var d Dump
	if r != nil {
		d = r.dump()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes the registry dump to path.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
