// Package telemetry is the deterministic, frame-synchronous observability
// layer: a metrics registry (counters, gauges, frame-bucketed histograms)
// and a bounded flight-recorder ring of structured events. Everything is
// timestamped by frame number / virtual time only — the package never reads
// a wall clock and never starts a goroutine, so it lives inside the
// frame-determinism boundary enforced by archlint (framedet,
// nofreegoroutine) and its output is replay-stable across runs.
//
// The flight-recorder ring is persisted through the end-of-frame
// stable-storage commit of the SCRAM host processor. Under the fail-stop
// model of Schlichting and Schneider that the paper assumes, stable storage
// survives a processor halt and remains pollable, so the ring is a black
// box: after the processor dies, RecoverRing reads the journal back out of
// the stable-storage snapshot, and ReconstructTrace turns it into the same
// sys_trace the SP1-SP4 checkers verify on live executions.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/det"
)

// KV is the staged-write surface the telemetry layer persists through. It is
// the subset of *stable.Store the package needs; keeping it an interface
// here avoids an import cycle (stable itself is instrumented by telemetry).
// Writes land in the staged area and take effect at the owning processor's
// next frame-boundary commit, so persisted telemetry obeys the same
// stable/volatile split as every other frame-end commit.
type KV interface {
	Put(key string, val []byte)
	Delete(key string)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a metric that may move in either direction.
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v = n }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v += n }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// DefaultFrameBuckets is the default histogram bucketing: frame counts, with
// Fibonacci-spaced upper bounds. Reconfiguration windows, phase lengths and
// signal latencies are all small frame counts, which these buckets resolve
// well.
var DefaultFrameBuckets = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55}

// Histogram is a frame-bucketed distribution: observations are integer frame
// counts and each bucket counts observations less than or equal to its upper
// bound, with a final implicit +Inf bucket.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1; last is +Inf
	count  int64
	sum    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// HistogramSnapshot is a histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the inclusive bucket upper bounds; an implicit +Inf
	// bucket follows the last.
	Bounds []int64 `json:"bounds"`
	// Counts holds one entry per bucket, len(Bounds)+1.
	Counts []int64 `json:"counts"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
	// Max is the largest observed value.
	Max int64 `json:"max"`
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// the winning bucket is found by cumulative rank, and the value is linearly
// interpolated across the bucket's inclusive integer range. Observations in
// the overflow bucket are attributed to Max (the only per-value fact the
// histogram retains past the last bound). An empty histogram reports 0. The
// estimate is a pure function of the snapshot, so replays and recovered
// journals reproduce it byte-identically.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		if i >= len(s.Bounds) {
			return s.Max
		}
		lo := int64(1)
		if i > 0 {
			lo = s.Bounds[i-1] + 1
		}
		hi := s.Bounds[i]
		if hi <= lo {
			return hi
		}
		// Position of the target rank within this bucket's count mass.
		frac := float64(rank-cum) / float64(c)
		v := lo + int64(math.Round(frac*float64(hi-lo)))
		if v > hi {
			v = hi
		}
		return v
	}
	return s.Max
}

// Snapshot freezes the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		//lint:allow allocfree snapshot-copy surface: the frozen copy is the point; per-frame only under the opt-in live telemetry plane's publish hook
		Bounds: append([]int64(nil), h.bounds...),
		//lint:allow allocfree snapshot-copy surface, as above
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Max:    h.max,
	}
	return s
}

// Registry holds the system's metrics, keyed by stable slash-separated names
// ("scram/triggers", "stable/p1/read_repairs"). Metric handles are resolved
// once and then updated in place on the hot path; all iteration is in
// sorted name order so exports are deterministic. A registry and its
// metrics belong to one system, and so to one goroutine at a time.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// Sorted name lists, cached between snapshots: the metric name set is
	// static once a system has warmed up, while Snapshot runs at campaign
	// collection and on every publish of the live telemetry plane. Nil =
	// rebuild.
	counterNames, gaugeNames, histNames []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.counterNames = nil
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.gaugeNames = nil
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (DefaultFrameBuckets when none are supplied) on first use.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefaultFrameBuckets
		}
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
		r.histNames = nil
	}
	return h
}

// Snapshot is a frozen, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		//lint:allow allocfree snapshot-copy surface: the frozen copy is the point; per-frame only under the opt-in live telemetry plane's publish hook
		Counters: make(map[string]int64, len(r.counters)),
		//lint:allow allocfree snapshot-copy surface, as above
		Gauges: make(map[string]int64, len(r.gauges)),
		//lint:allow allocfree snapshot-copy surface, as above
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	if r.counterNames == nil {
		r.counterNames = det.SortedKeys(r.counters)
	}
	if r.gaugeNames == nil {
		r.gaugeNames = det.SortedKeys(r.gauges)
	}
	if r.histNames == nil {
		r.histNames = det.SortedKeys(r.hists)
	}
	for _, name := range r.counterNames {
		s.Counters[name] = r.counters[name].Value()
	}
	for _, name := range r.gaugeNames {
		s.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range r.histNames {
		s.Histograms[name] = r.hists[name].Snapshot()
	}
	return s
}

// promName maps a slash-separated metric name onto the Prometheus exposition
// charset.
func promName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm writes the snapshot in Prometheus text exposition format, keyed
// by virtual time: every sample carries the virtual-time timestamp in
// milliseconds derived from the frame number and frame length, never a wall
// clock. The output is byte-identical across replays of the same execution.
func (s Snapshot) WriteProm(w io.Writer, frameNum int64, frameLen time.Duration) error {
	vtMillis := (time.Duration(frameNum) * frameLen).Milliseconds()
	if _, err := fmt.Fprintf(w, "# frame %d virtual_time_ms %d\n", frameNum, vtMillis); err != nil {
		return err
	}
	names := det.SortedKeysInto(nil, s.Counters)
	for _, name := range names {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d %d\n", n, n, s.Counters[name], vtMillis); err != nil {
			return err
		}
	}
	names = det.SortedKeysInto(names, s.Gauges)
	for _, name := range names {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d %d\n", n, n, s.Gauges[name], vtMillis); err != nil {
			return err
		}
	}
	for _, name := range det.SortedKeysInto(names, s.Histograms) {
		n := promName(name)
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d %d\n", n, bound, cum, vtMillis); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d %d\n%s_sum %d %d\n%s_count %d %d\n",
			n, cum, vtMillis, n, h.Sum, vtMillis, n, h.Count, vtMillis); err != nil {
			return err
		}
	}
	return nil
}
