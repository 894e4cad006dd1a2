package campaign

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/stable"
	"repro/internal/telemetry"
)

// Totals aggregates every run of a campaign.
type Totals struct {
	// Runs is the number of cells executed; Errors the number that
	// failed to build or run.
	Runs   int `json:"runs"`
	Errors int `json:"errors"`
	// Violations sums SP1-SP4 violations; SilentWrongData sums the
	// storage oracle's silent-corruption counts. A fail-stop system
	// must hold both at zero under every fault plan.
	Violations      int   `json:"sp_violations"`
	SilentWrongData int64 `json:"silent_wrong_data"`
	// StorageHalts and Reconfigs sum the fail-stop conversions and the
	// completed reconfigurations.
	StorageHalts int `json:"storage_halts"`
	Reconfigs    int `json:"reconfigs"`
	// Injected and Storage sum the storage runs' media-fault injection
	// and fault-handling counters.
	Injected stable.MediumStats `json:"injected"`
	Storage  stable.ReplStats   `json:"storage"`
	// WindowFrames and SignalLatency merge every run's recovery-latency
	// histograms: reconfiguration window lengths and trigger-to-start
	// latencies, in frames.
	WindowFrames  telemetry.HistogramSnapshot `json:"window_frames"`
	SignalLatency telemetry.HistogramSnapshot `json:"signal_latency"`
	// WindowQuantiles and SignalQuantiles read the merged histograms at
	// the standard percentiles; nil while no run observed a sample.
	WindowQuantiles *LatencyQuantiles `json:"window_quantiles,omitempty"`
	SignalQuantiles *LatencyQuantiles `json:"signal_latency_quantiles,omitempty"`
	// SpanPhases merges the runs' causal-trace phase breakdowns: total
	// frames spent in each span phase (signal, halt, prepare, initialize,
	// ...) across every assembled reconfiguration trace.
	SpanPhases map[string]int64 `json:"span_phases,omitempty"`
	// MembershipViolations sums the membership-invariant violations; a
	// membership campaign must hold it at zero. Omitted (with the
	// Membership section) from campaigns without membership arms, so
	// storage- and bus-only reports are unchanged byte for byte.
	MembershipViolations int `json:"membership_violations,omitempty"`
	// Membership aggregates the membership runs' counters.
	Membership *MembershipTotals `json:"membership,omitempty"`
	// Chaos aggregates the chaos storms' counters. Omitted from campaigns
	// without chaos arms, so existing reports are unchanged byte for byte.
	Chaos *ChaosTotals `json:"chaos,omitempty"`
}

// ChaosTotals sums the chaos storms' accounting over every chaos run of a
// campaign. Mismatches stays zero on a passing campaign — any equivalence
// divergence also fails its run.
type ChaosTotals struct {
	Storms      int `json:"storms"`
	Tenants     int `json:"tenants"`
	Crashes     int `json:"crashes"`
	Recovered   int `json:"recovered"`
	TornWrites  int `json:"torn_writes"`
	Injected    int `json:"injected"`
	DedupeHits  int `json:"dedupe_hits"`
	Checked     int `json:"checked"`
	Quarantined int `json:"quarantined"`
	Mismatches  int `json:"mismatches"`
}

// MembershipTotals sums the membership layer's accounting over every
// membership run of a campaign.
type MembershipTotals struct {
	// Joins, Leaves, Rejected, Evictions and Converges sum the managers'
	// cumulative counters.
	Joins     int `json:"joins"`
	Leaves    int `json:"leaves"`
	Rejected  int `json:"rejected"`
	Evictions int `json:"evictions"`
	Converges int `json:"converges"`
	// MaxEpoch is the largest final epoch any run reached.
	MaxEpoch int64 `json:"max_epoch"`
}

// LatencyQuantiles summarizes a merged latency histogram at the standard
// percentiles, in frames.
type LatencyQuantiles struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
}

// histQuantiles reads a histogram at p50/p95/p99, or nil when empty.
func histQuantiles(h telemetry.HistogramSnapshot) *LatencyQuantiles {
	if h.Count == 0 {
		return nil
	}
	return &LatencyQuantiles{
		P50: h.Quantile(0.50),
		P95: h.Quantile(0.95),
		P99: h.Quantile(0.99),
	}
}

// SlowTrace pairs a retained reconfiguration waterfall with the run that
// produced it.
type SlowTrace struct {
	Run   int                   `json:"run"`
	Trace telemetry.TraceReport `json:"trace"`
}

// slowestTraceK is how many of the slowest completed reconfiguration
// traces the aggregate report retains in full waterfall form.
const slowestTraceK = 3

// Report is the campaign's aggregate output. Building it only reads the
// result slice in run-ID order, so for a given matrix the marshaled report
// is byte-identical whatever worker count or completion order produced the
// results.
type Report struct {
	Matrix  Matrix   `json:"matrix"`
	Results []Result `json:"results"`
	Totals  Totals   `json:"totals"`
	// SlowestTraces retains the slowestTraceK slowest completed
	// reconfiguration traces across every run, ordered by realized
	// window descending (ties resolved by run ID, start frame and trace
	// ID, so the selection is deterministic for any worker count).
	SlowestTraces []SlowTrace `json:"slowest_traces,omitempty"`
}

// mergeHist folds src into dst. Histograms with equal bounds add bucket by
// bucket; an empty dst adopts src's bounds. Mismatched bounds cannot merge
// and are dropped (every kernel histogram uses the default frame buckets,
// so this does not arise in practice).
func mergeHist(dst *telemetry.HistogramSnapshot, src telemetry.HistogramSnapshot) {
	if src.Count == 0 && len(src.Bounds) == 0 {
		return
	}
	if len(dst.Bounds) == 0 {
		dst.Bounds = append([]int64(nil), src.Bounds...)
		dst.Counts = append([]int64(nil), src.Counts...)
		dst.Count = src.Count
		dst.Sum = src.Sum
		dst.Max = src.Max
		return
	}
	if len(dst.Bounds) != len(src.Bounds) {
		return
	}
	for i, b := range dst.Bounds {
		if src.Bounds[i] != b {
			return
		}
	}
	for i := range src.Counts {
		dst.Counts[i] += src.Counts[i]
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
	if src.Max > dst.Max {
		dst.Max = src.Max
	}
}

// BuildReport merges the results (indexed by run ID, as Execute returns
// them) into the aggregate report.
func BuildReport(m Matrix, results []Result) Report {
	rep := Report{Matrix: m, Results: results}
	t := &rep.Totals
	t.Runs = len(results)
	for _, res := range results {
		if res.Chaos != nil {
			// Aggregated before the error gate: a dirty storm sets Err,
			// and its mismatch count belongs in the totals.
			if t.Chaos == nil {
				t.Chaos = &ChaosTotals{}
			}
			o := res.Chaos
			t.Chaos.Storms++
			t.Chaos.Tenants += o.Tenants
			t.Chaos.Crashes += o.Crashes
			t.Chaos.Recovered += o.Recovered
			t.Chaos.TornWrites += o.TornWrites
			t.Chaos.Injected += o.Injected
			t.Chaos.DedupeHits += o.DedupeHits
			t.Chaos.Checked += o.Checked
			t.Chaos.Quarantined += o.Quarantined
			t.Chaos.Mismatches += len(o.Mismatches)
		}
		if res.Err != "" {
			t.Errors++
			continue
		}
		t.Violations += res.Violations
		t.SilentWrongData += res.SilentWrongData
		t.StorageHalts += res.StorageHalts
		t.Reconfigs += res.Reconfigs
		mergeHist(&t.WindowFrames, res.WindowFrames)
		mergeHist(&t.SignalLatency, res.SignalLatency)
		for name, frames := range res.SpanPhases {
			if t.SpanPhases == nil {
				t.SpanPhases = make(map[string]int64)
			}
			t.SpanPhases[name] += frames
		}
		for _, tr := range res.Traces {
			if tr.Complete {
				rep.SlowestTraces = append(rep.SlowestTraces, SlowTrace{Run: res.Run.ID, Trace: tr})
			}
		}
		if res.Storage != nil {
			t.Injected.Add(res.Storage.Injected)
			t.Storage.Add(res.Storage.Storage)
		}
		if res.Membership != nil {
			if t.Membership == nil {
				t.Membership = &MembershipTotals{}
			}
			t.MembershipViolations += res.MembershipViolations
			s := res.Membership.Membership
			t.Membership.Joins += s.Joins
			t.Membership.Leaves += s.Leaves
			t.Membership.Rejected += s.Rejected
			t.Membership.Evictions += s.Evictions
			t.Membership.Converges += s.Converges
			if res.Membership.Epoch > t.Membership.MaxEpoch {
				t.Membership.MaxEpoch = res.Membership.Epoch
			}
		}
	}
	t.WindowQuantiles = histQuantiles(t.WindowFrames)
	t.SignalQuantiles = histQuantiles(t.SignalLatency)
	// Slowest first; every comparison key is a pure function of the
	// results, so the retained set is worker-count independent.
	sort.SliceStable(rep.SlowestTraces, func(i, j int) bool {
		a, b := rep.SlowestTraces[i], rep.SlowestTraces[j]
		if a.Trace.Window != b.Trace.Window {
			return a.Trace.Window > b.Trace.Window
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Trace.Start != b.Trace.Start {
			return a.Trace.Start < b.Trace.Start
		}
		return a.Trace.ID < b.Trace.ID
	})
	if len(rep.SlowestTraces) > slowestTraceK {
		rep.SlowestTraces = rep.SlowestTraces[:slowestTraceK]
	}
	return rep
}

// JSON renders the report in its canonical byte-stable form: indented,
// map keys sorted by encoding/json, rings omitted.
func (r Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding report: %w", err)
	}
	return append(data, '\n'), nil
}

// FirstError returns the first failed run's error in run-ID order, or nil.
func (r Report) FirstError() error {
	for _, res := range r.Results {
		if res.Err != "" {
			return fmt.Errorf("campaign: run %d (%s seed %d): %s", res.Run.ID, res.Run.Arm, res.Run.Seed, res.Err)
		}
	}
	return nil
}

// RingRun picks the run whose flight-recorder journal is worth exporting:
// the last run, in run-ID order, that halted a processor, or failing that
// the last run with a non-empty ring. The whole Result travels together, so
// a caller exporting the ring also has the same run's kind and final
// metrics. ok is false when no run recovered a ring. Deterministic for the
// same results.
func (r Report) RingRun() (res Result, ok bool) {
	last, halted := -1, -1
	for i, run := range r.Results {
		if len(run.Ring) == 0 {
			continue
		}
		last = i
		if run.StorageHalts > 0 {
			halted = i
		}
	}
	switch {
	case halted >= 0:
		return r.Results[halted], true
	case last >= 0:
		return r.Results[last], true
	}
	return Result{}, false
}
