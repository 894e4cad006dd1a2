package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
)

// churnScript flips alt1 every `every` frames, from every/2 up to end: an
// alternator fault/repair cycle, so the kernel logs a signal and a full
// reconfiguration each period.
func churnScript(every, end int64) []envmon.Event {
	var script []envmon.Event
	val := "failed"
	for f := every / 2; f < end; f += every {
		script = append(script, envmon.Event{Frame: f, Factor: "alt1", Value: val})
		if val == "failed" {
			val = "ok"
		} else {
			val = "failed"
		}
	}
	return script
}

// buildBenchSystem wires the canonical system for the frame-loop benchmarks.
// churnEvery > 0 scripts an alternator fault/repair cycle at that period, so
// reconfigurations — and the telemetry they generate — are part of the
// measured loop; churnEvery 0 leaves the environment quiet, measuring the
// steady state the system spends almost all of its life in.
func buildBenchSystem(tb testing.TB, telemetryCapacity int, churnEvery int64) *System {
	tb.Helper()
	var script []envmon.Event
	if churnEvery > 0 {
		script = churnScript(churnEvery, 1_000_000)
	}
	sys, err := NewSystem(Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier:        powerClassifier(false),
		InitialFactors:    map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script:            script,
		TelemetryCapacity: telemetryCapacity,
	})
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	tb.Cleanup(sys.Close)
	return sys
}

func benchFrames(b *testing.B, telemetryCapacity int, churnEvery int64) {
	sys := buildBenchSystem(b, telemetryCapacity, churnEvery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameTelemetryOn measures the steady-state frame loop with the
// default telemetry layer: recorder stamping, run-length-encoded state
// sampling, and the (no-op on quiet frames) ring-persistence check.
func BenchmarkFrameTelemetryOn(b *testing.B) { benchFrames(b, 0, 0) }

// BenchmarkFrameTelemetryOff is the steady-state ablation arm: the identical
// system with the telemetry layer disabled.
func BenchmarkFrameTelemetryOff(b *testing.B) { benchFrames(b, -1, 0) }

// BenchmarkFrameChurnTelemetryOn stresses the expensive path: alternator
// churn every 20 frames keeps the system reconfiguring, so protocol events,
// frame-state samples and the per-frame journal staging are all live.
func BenchmarkFrameChurnTelemetryOn(b *testing.B) { benchFrames(b, 0, 20) }

// BenchmarkFrameChurnTelemetryOff is the churn ablation arm.
func BenchmarkFrameChurnTelemetryOff(b *testing.B) { benchFrames(b, -1, 20) }

// armSample is one fixed-frame measurement of one benchmark arm.
type armSample struct {
	nsPerFrame     float64
	allocsPerFrame float64
	bytesPerFrame  float64
}

// measureArm times exactly `frames` frames of one arm after a short warmup.
// Running a fixed frame count in every arm keeps frame-count-dependent costs
// (notably the live trace's slice growth, which testing.Benchmark's varying
// b.N spreads unevenly across arms) identical on both sides of the
// comparison, so they cancel in the subtraction.
func measureArm(tb testing.TB, frames int, telemetryCapacity int, churnEvery int64) armSample {
	tb.Helper()
	sys := buildBenchSystem(tb, telemetryCapacity, churnEvery)
	warmUp(tb, sys)
	runtime.GC()
	return timeFrames(tb, sys, frames).per(frames)
}

// warmUp steps a freshly built system through a fixed warmup.
func warmUp(tb testing.TB, sys *System) {
	tb.Helper()
	for i := 0; i < 1000; i++ {
		if err := sys.Step(); err != nil {
			tb.Fatal(err)
		}
	}
}

// timeFrames steps sys through n frames and returns the sample's totals
// over them (see per): elapsed nanoseconds, allocations and bytes.
func timeFrames(tb testing.TB, sys *System, n int) armSample {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := sys.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return armSample{
		nsPerFrame:     float64(elapsed.Nanoseconds()),
		allocsPerFrame: float64(after.Mallocs - before.Mallocs),
		bytesPerFrame:  float64(after.TotalAlloc - before.TotalAlloc),
	}
}

// add accumulates another measurement's totals.
func (s *armSample) add(o armSample) {
	s.nsPerFrame += o.nsPerFrame
	s.allocsPerFrame += o.allocsPerFrame
	s.bytesPerFrame += o.bytesPerFrame
}

// per turns totals over n frames into per-frame figures.
func (s armSample) per(n int) armSample {
	f := float64(n)
	return armSample{s.nsPerFrame / f, s.allocsPerFrame / f, s.bytesPerFrame / f}
}

// interleaveBlock is the frame count each arm of a pair runs before the
// other arm takes over: a few milliseconds of frames, long enough that
// switching systems costs nothing measurable.
const interleaveBlock = 1000

// measurePair measures an instrumented arm against its ablation arm n
// times and returns the fastest sample of each plus the median of the
// pairwise overheads. build(true) builds the instrumented system,
// build(false) the ablation. Each pair builds both systems and steps them
// `frames` frames each in alternating blocks of interleaveBlock frames,
// swapping which arm goes first every block. A shared host's load drifts
// over tens of milliseconds, so two arms run one after the other can see
// different machines; interleaved at this grain both arms see the same
// load, and the drift cancels in their ratio instead of landing on one
// arm. The median over pairs discards a pair a scheduling hiccup landed
// in.
func measurePair(tb testing.TB, n, frames int, build func(instrumented bool) *System) (on, off armSample, medianPct float64) {
	pcts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sysOn, sysOff := build(true), build(false)
		warmUp(tb, sysOn)
		warmUp(tb, sysOff)
		runtime.GC()
		var son, soff armSample
		for done, b := 0, 0; done < frames; done, b = done+interleaveBlock, b+1 {
			k := min(interleaveBlock, frames-done)
			if b%2 == 0 {
				son.add(timeFrames(tb, sysOn, k))
				soff.add(timeFrames(tb, sysOff, k))
			} else {
				soff.add(timeFrames(tb, sysOff, k))
				son.add(timeFrames(tb, sysOn, k))
			}
		}
		son, soff = son.per(frames), soff.per(frames)
		if i == 0 || son.nsPerFrame < on.nsPerFrame {
			on = son
		}
		if i == 0 || soff.nsPerFrame < off.nsPerFrame {
			off = soff
		}
		pcts = append(pcts, (son.nsPerFrame-soff.nsPerFrame)/soff.nsPerFrame*100)
	}
	sort.Float64s(pcts)
	return on, off, pcts[len(pcts)/2]
}

// telemetryArms builds the telemetry benchmark's arms: the canonical
// system with the default telemetry layer, or with telemetry disabled.
func telemetryArms(tb testing.TB, churnEvery int64) func(bool) *System {
	return func(instrumented bool) *System {
		capacity := -1
		if instrumented {
			capacity = 0
		}
		return buildBenchSystem(tb, capacity, churnEvery)
	}
}

// logBenchJSON reports a benchmark's numbers as the JSON document of the
// named BENCH_*.json snapshot at the repository root. The test only logs
// it — `go test` must leave the tree clean — so refreshing a snapshot is a
// deliberate copy out of `go test -v` output.
func logBenchJSON(t *testing.T, file string, doc any) {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s:\n%s", file, data)
}

// benchResult is one row of BENCH_observability.json.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerFrame  float64 `json:"ns_per_frame"`
	AllocsPerOp float64 `json:"allocs_per_frame"`
	BytesPerOp  float64 `json:"bytes_per_frame"`
}

func row(name string, s armSample) benchResult {
	return benchResult{
		Name:        name,
		NsPerFrame:  s.nsPerFrame,
		AllocsPerOp: s.allocsPerFrame,
		BytesPerOp:  s.bytesPerFrame,
	}
}

// TestTelemetryOverheadBench measures both benchmark pairs under plain
// `go test` and reports the telemetry overhead as BENCH_observability.json
// (logged, see logBenchJSON). The steady-state pair is the headline number — the
// target is < 5% ns/frame there, asserted with CI-jitter headroom at 15%.
// The churn pair documents the cost while the system is actively
// reconfiguring (every 20 frames, far denser than any fault campaign): that
// overhead is real work — journal staging for every protocol event — and is
// recorded, with a loose 75% ceiling so a regression to the pre-ring-buffer
// costs still fails.
func TestTelemetryOverheadBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	const frames = 20_000
	steadyOn, steadyOff, steadyPct := measurePair(t, 5, frames, telemetryArms(t, 0))
	// The churn arms are noisier than the steady ones — each sample rides
	// through ~1000 reconfiguration windows' GC and scheduling jitter — so
	// the median needs more pairs to settle.
	churnOn, churnOff, churnPct := measurePair(t, 7, frames, telemetryArms(t, 20))

	out := struct {
		Benchmark        string        `json:"benchmark"`
		Target           string        `json:"target"`
		Results          []benchResult `json:"results"`
		OverheadPct      float64       `json:"telemetry_overhead_pct"`
		ChurnOverheadPct float64       `json:"telemetry_churn_overhead_pct"`
		Notes            []string      `json:"notes,omitempty"`
	}{
		Benchmark: "telemetry overhead: canonical three-config frame loop, steady state (headline) and alternator churn every 20 frames (stress)",
		Target:    "steady-state telemetry overhead < 5% ns/frame",
		Results: []benchResult{
			row("frame/steady/telemetry=on", steadyOn),
			row("frame/steady/telemetry=off", steadyOff),
			row("frame/churn20/telemetry=on", churnOn),
			row("frame/churn20/telemetry=off", churnOff),
		},
		OverheadPct:      steadyPct,
		ChurnOverheadPct: churnPct,
		Notes: []string{
			"allocation trim (pre-sized det.SortedKeys scratch via SortedKeysInto, pre-sized stable Keys/SnapshotPrefix maps, cached app stable regions): steady allocs/frame were on 63.35 / off 63.00 before the change",
			"pooled event staging (size-classed retired-buffer pool in internal/stable, open-chunk journal re-puts in telemetry.Persist): before the change the churn arm measured 42.15% median overhead (on 7764 / off 5462 ns/frame) and the steady arm 4.00 allocs/frame",
			"the residual churn overhead is the journaling itself — per-event chunk encoding, run-length frame-state samples and span events during reconfiguration windows — and is measured against an ablation baseline the same pooling also sped up",
			fmt.Sprintf("after the change this run measured steady allocs/frame on %.2f / off %.2f and churn ns/frame on %.0f / off %.0f", steadyOn.allocsPerFrame, steadyOff.allocsPerFrame, churnOn.nsPerFrame, churnOff.nsPerFrame),
		},
	}
	logBenchJSON(t, "BENCH_observability.json", out)
	t.Logf("steady: on %.0f ns/frame (%.1f allocs) vs off %.0f (%.1f) = %.2f%% median overhead",
		steadyOn.nsPerFrame, steadyOn.allocsPerFrame,
		steadyOff.nsPerFrame, steadyOff.allocsPerFrame, steadyPct)
	t.Logf("churn20: on %.0f ns/frame (%.1f allocs) vs off %.0f (%.1f) = %.2f%% median overhead",
		churnOn.nsPerFrame, churnOn.allocsPerFrame,
		churnOff.nsPerFrame, churnOff.allocsPerFrame, churnPct)
	if steadyPct > 15 {
		t.Errorf("steady-state telemetry overhead %.2f%% ns/frame exceeds the 15%% ceiling (target < 5%%)", steadyPct)
	}
	if churnPct > 75 {
		t.Errorf("churn telemetry overhead %.2f%% ns/frame exceeds the 75%% ceiling", churnPct)
	}
}

// TestFrameAllocBudgetBench is the runtime half of the alloc discipline the
// allocfree analyzer enforces statically: the steady-state frame loop, full
// telemetry on, must stay under 10 allocations per frame, and the churn loop
// (a reconfiguration every 20 frames) under 6. The measured numbers are
// logged as BENCH_frame.json (see logBenchJSON). Allocation counts, unlike
// wall-clock times, are nearly deterministic — the best of three runs
// discards only GC-timing noise — so the budgets are asserted directly, no
// jitter headroom needed. A reconfiguring frame still allocates (protocol
// events, frame-state samples, the recorder's attribute blocks), and the
// WCET argument charges that cost to the reconfiguration window; the churn
// budget keeps it from creeping back up — the frame-path records and the
// compiled phase plans took it from 13.75 to ~6.6, and recorder-owned event
// attributes to ~5.1 (~5.4 under the race detector, which the CI race step
// also runs).
func TestFrameAllocBudgetBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	const frames = 20_000
	var steady, churn armSample
	for i := 0; i < 3; i++ {
		s := measureArm(t, frames, 0, 0)
		c := measureArm(t, frames, 0, 20)
		if i == 0 || s.allocsPerFrame < steady.allocsPerFrame {
			steady = s
		}
		if i == 0 || c.allocsPerFrame < churn.allocsPerFrame {
			churn = c
		}
	}

	out := struct {
		Benchmark string        `json:"benchmark"`
		Budget    string        `json:"budget"`
		Results   []benchResult `json:"results"`
		Steady    float64       `json:"steady_allocs_per_frame"`
		Notes     []string      `json:"notes,omitempty"`
	}{
		Benchmark: "frame alloc budget: canonical three-config frame loop, telemetry on, steady state and alternator churn every 20 frames",
		Budget:    "steady-state allocations < 10 per frame, churn allocations < 6 per frame",
		Results: []benchResult{
			row("frame/steady/telemetry=on", steady),
			row("frame/churn20/telemetry=on", churn),
		},
		Steady: steady.allocsPerFrame,
		Notes: []string{
			"the static half of this gate is the allocfree analyzer: archlint -baseline lint/allocfree.baseline fails on any new frame-reachable allocation site",
			"remaining steady allocations are the amortized scratch growth and trace bookkeeping annotated with //lint:allow allocfree in source",
			"churn frames allocate by design (protocol events, frame-state samples, the recorder's attribute blocks); their cost is charged to the reconfiguration window's WCET, and the churn budget keeps it from creeping back",
		},
	}
	logBenchJSON(t, "BENCH_frame.json", out)
	t.Logf("steady: %.0f ns/frame, %.2f allocs/frame (budget < 10)", steady.nsPerFrame, steady.allocsPerFrame)
	t.Logf("churn20: %.0f ns/frame, %.2f allocs/frame (budget < 6)", churn.nsPerFrame, churn.allocsPerFrame)
	if steady.allocsPerFrame >= 10 {
		t.Errorf("steady-state frame loop allocates %.2f times per frame, budget is < 10", steady.allocsPerFrame)
	}
	if churn.allocsPerFrame >= 6 {
		t.Errorf("churn frame loop allocates %.2f times per frame, budget is < 6", churn.allocsPerFrame)
	}
}
