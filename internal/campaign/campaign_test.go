package campaign

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/stable"
	"repro/internal/telemetry"
)

// testProfile is a fault load heavy enough to exercise repair and (on the
// one-replica defeat arm) fail-stop conversion within a short run.
var testProfile = stable.FaultProfile{
	TornWriteRate: 0.025,
	BitRotRate:    0.05,
	StuckReadRate: 0.025,
}

func smallStorageMatrix() Matrix {
	return S1Matrix(2, 120, testProfile)
}

func TestExpandSeedMajor(t *testing.T) {
	runs := smallStorageMatrix().Expand()
	if len(runs) != 4 {
		t.Fatalf("expanded %d runs, want 4", len(runs))
	}
	want := []struct {
		arm  string
		seed int64
	}{{"shielded", 0}, {"defeat", 0}, {"shielded", 1}, {"defeat", 1}}
	for i, r := range runs {
		if r.ID != i {
			t.Errorf("run %d has ID %d", i, r.ID)
		}
		if r.Arm != want[i].arm || r.Seed != want[i].seed {
			t.Errorf("run %d = %s/%d, want %s/%d", i, r.Arm, r.Seed, want[i].arm, want[i].seed)
		}
		if r.EnvEvents != 120/25 {
			t.Errorf("run %d EnvEvents = %d, want default %d", i, r.EnvEvents, 120/25)
		}
	}
}

func TestExpandArmMajor(t *testing.T) {
	m := S2Matrix(2, 80, bus.FaultRates{Drop: 0.1})
	runs := m.Expand()
	if len(runs) != 8 {
		t.Fatalf("expanded %d runs, want 8", len(runs))
	}
	// Arm-major: both seeds of the clean sweep point come first.
	if runs[0].Arm != "x0" || runs[1].Arm != "x0" || runs[2].Arm != "x1" {
		t.Errorf("arm-major order broken: %s %s %s", runs[0].Arm, runs[1].Arm, runs[2].Arm)
	}
	if runs[0].Seed != 0 || runs[1].Seed != 1 {
		t.Errorf("seeds within arm = %d,%d, want 0,1", runs[0].Seed, runs[1].Seed)
	}
}

func TestMatrixValidate(t *testing.T) {
	ok := smallStorageMatrix()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Matrix)
		want   string
	}{
		{"no seeds", func(m *Matrix) { m.Seeds = 0 }, "at least one seed"},
		{"no frames", func(m *Matrix) { m.Frames = 0 }, "at least one frame"},
		{"no arms", func(m *Matrix) { m.Arms = nil }, "no arms"},
		{"bad order", func(m *Matrix) { m.Order = "zigzag" }, "unknown order"},
		{"unnamed arm", func(m *Matrix) { m.Arms[0].Name = "" }, "has no name"},
		{"duplicate arm", func(m *Matrix) { m.Arms[1].Name = m.Arms[0].Name }, "duplicate arm"},
		{"unknown kind", func(m *Matrix) { m.Arms[0].Kind = "quantum" }, "unknown kind"},
		{"storage rate out of range", func(m *Matrix) { m.Arms[0].Faults.BitRotRate = 1.5 }, "outside [0,1]"},
		{"bus rate out of range", func(m *Matrix) {
			m.Arms = []Arm{{Name: "hot", Kind: KindBus, Rates: bus.FaultRates{Drop: -0.1}}}
		}, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := smallStorageMatrix()
			tc.mutate(&m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestEngineDeterminism is the engine's core contract: the aggregate JSON
// report is byte-identical for any worker count, because results land in
// run-ID slots and the report never reads completion order.
func TestEngineDeterminism(t *testing.T) {
	m := smallStorageMatrix()
	runs := m.Expand()
	var reports [][]byte
	for _, workers := range []int{1, 2, 8} {
		results := Engine{Workers: workers}.Execute(runs)
		rep := BuildReport(m, results)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports = append(reports, raw)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("report for workers=%d differs from workers=1", []int{1, 2, 8}[i])
		}
	}
}

// TestReportCapture checks the per-run capture: zero SP violations and
// silent corruption, recovery-latency histograms lifted from the registry,
// and a recovered flight-recorder ring summarized per run.
func TestReportCapture(t *testing.T) {
	m := smallStorageMatrix()
	results := Engine{Workers: 2}.Execute(m.Expand())
	rep := BuildReport(m, results)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	if tot.Runs != 4 || tot.Errors != 0 {
		t.Fatalf("totals runs/errors = %d/%d, want 4/0", tot.Runs, tot.Errors)
	}
	if tot.Violations != 0 || tot.SilentWrongData != 0 {
		t.Fatalf("correctness breached: %d violations, %d silent wrong data", tot.Violations, tot.SilentWrongData)
	}
	if tot.Injected.TornWrites+tot.Injected.BitFlips+tot.Injected.StuckReads == 0 {
		t.Error("no media faults injected")
	}
	if tot.Reconfigs == 0 {
		t.Error("no reconfigurations completed")
	}
	if tot.WindowFrames.Count != int64(tot.Reconfigs) {
		t.Errorf("merged window histogram has %d observations, want one per reconfig (%d)",
			tot.WindowFrames.Count, tot.Reconfigs)
	}
	for _, res := range rep.Results {
		if res.Recorder.LastFrame == 0 && len(res.Ring) == 0 && res.StorageHalts == 0 {
			t.Errorf("run %d recovered no ring without a halt", res.Run.ID)
		}
	}
	if _, ok := rep.RingRun(); !ok {
		t.Error("no exportable ring")
	}
	if tot.Reconfigs > 0 {
		if len(tot.SpanPhases) == 0 {
			t.Error("no span-phase aggregation despite completed reconfigurations")
		}
		if tot.WindowQuantiles == nil || tot.WindowQuantiles.P50 <= 0 {
			t.Errorf("window quantiles missing or degenerate: %+v", tot.WindowQuantiles)
		}
		if len(rep.SlowestTraces) == 0 {
			t.Error("no slowest traces retained")
		}
		for i, s := range rep.SlowestTraces {
			if !s.Trace.Complete || s.Trace.Window <= 0 {
				t.Errorf("slowest trace %d is not a completed window: %+v", i, s.Trace)
			}
			if i > 0 && s.Trace.Window > rep.SlowestTraces[i-1].Trace.Window {
				t.Errorf("slowest traces out of order at %d: %d frames after %d",
					i, s.Trace.Window, rep.SlowestTraces[i-1].Trace.Window)
			}
		}
	}
}

// TestRingRun pins the export selector: the last halted run with a ring in
// run-ID order, or failing that the last run with a ring at all.
func TestRingRun(t *testing.T) {
	ring := []telemetry.Event{{Kind: telemetry.KindSignal}}
	type run struct {
		arm   string
		ring  bool
		halts int
	}
	tests := []struct {
		name string
		runs []run
		want int // run ID, or -1 for none
	}{
		{"no halts", []run{{"x0", true, 0}, {"x1", true, 0}, {"x2", false, 0}}, 1},
		{"one halted run", []run{{"defeat", true, 0}, {"defeat", true, 1}, {"defeat", true, 0}}, 1},
		{"halts in two arms", []run{
			{"shielded", true, 1}, {"defeat", true, 2}, {"shielded", true, 0}, {"defeat", false, 1},
		}, 1},
		{"no ring", []run{{"x0", false, 0}, {"x1", false, 1}}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var rep Report
			for i, r := range tt.runs {
				res := Result{Run: Run{ID: i, Arm: r.arm}, StorageHalts: r.halts}
				if r.ring {
					res.Ring = ring
				}
				rep.Results = append(rep.Results, res)
			}
			got, ok := rep.RingRun()
			switch {
			case tt.want < 0 && ok:
				t.Fatalf("picked run %d, want none", got.Run.ID)
			case tt.want >= 0 && !ok:
				t.Fatalf("picked none, want run %d", tt.want)
			case ok && got.Run.ID != tt.want:
				t.Fatalf("picked run %d (%s), want run %d", got.Run.ID, got.Run.Arm, tt.want)
			}
		})
	}
}

// TestBusRun drives one bus cell end to end through the engine.
func TestBusRun(t *testing.T) {
	m := S2Matrix(1, 60, bus.FaultRates{Drop: 0.1, Duplicate: 0.05, Delay: 0.05})
	m.Arms = m.Arms[1:2] // just the x1 sweep point
	results := Engine{Workers: 1}.Execute(m.Expand())
	rep := BuildReport(m, results)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Bus == nil {
		t.Fatal("bus metrics missing")
	}
	if res.Violations != 0 {
		t.Errorf("%d SP violations", res.Violations)
	}
	if res.Bus.Delivered == 0 {
		t.Error("bus delivered nothing")
	}
}

// TestMembershipRun drives the s3 matrix end to end through the engine and
// checks the membership contract: zero SP and membership-invariant
// violations, the churn arm's unverifiable leave rejected on every run, the
// corrupt arm converging once per injected corruption, and a byte-identical
// aggregate report across worker counts.
func TestMembershipRun(t *testing.T) {
	m := S3Matrix(2, 120, 2)
	runs := m.Expand()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var reports [][]byte
	var rep Report
	for _, workers := range []int{1, 4} {
		results := Engine{Workers: workers}.Execute(runs)
		rep = BuildReport(m, results)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports = append(reports, raw)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("membership report differs across worker counts")
	}
	tot := rep.Totals
	if tot.Violations != 0 || tot.MembershipViolations != 0 {
		t.Fatalf("%d SP violations, %d membership violations; want 0,0", tot.Violations, tot.MembershipViolations)
	}
	if tot.Membership == nil {
		t.Fatal("membership totals missing")
	}
	if tot.Membership.Joins == 0 || tot.Membership.Leaves == 0 {
		t.Errorf("no churn happened: %+v", tot.Membership)
	}
	if tot.Membership.Rejected != len(rep.Results) {
		t.Errorf("rejected = %d, want one unverifiable leave per run (%d)", tot.Membership.Rejected, len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Membership == nil {
			t.Fatalf("run %d: membership metrics missing", res.Run.ID)
		}
		s := res.Membership.Membership
		switch res.Run.Arm {
		case "evict":
			if s.Evictions == 0 {
				t.Errorf("run %d (evict): no evictions", res.Run.ID)
			}
		case "corrupt":
			if s.Converges != res.Run.CorruptRecords {
				t.Errorf("run %d (corrupt): converges = %d, want one per corruption (%d)",
					res.Run.ID, s.Converges, res.Run.CorruptRecords)
			}
		case "churn":
			if s.Converges != 0 {
				t.Errorf("run %d (churn): %d spurious convergences", res.Run.ID, s.Converges)
			}
		}
	}
}

// TestChaosRun drives the S4 matrix: every storm — panics only, host
// crash-restart cycles with torn manifest writes, and the same storm under
// a bounded retention window — must end with every tenant passing the
// restart-equivalence check. Chaos outcomes carry real-time traffic
// tallies, so unlike the other kinds byte-identical reports across worker
// counts are not asserted; the invariant is that every storm is clean.
func TestChaosRun(t *testing.T) {
	m := S4Matrix(1, 100, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(m, Engine{Workers: 2}.Execute(m.Expand()))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals.Chaos
	if tot == nil {
		t.Fatal("chaos totals missing")
	}
	if tot.Storms != 3 || tot.Mismatches != 0 || tot.Checked != tot.Tenants {
		t.Fatalf("chaos totals %+v: want 3 clean storms with all tenants checked", tot)
	}
	if tot.Crashes != 2 || tot.Recovered == 0 || tot.TornWrites == 0 {
		t.Fatalf("chaos totals %+v: the crash arms never crashed/tore (vacuous)", tot)
	}
	for _, res := range rep.Results {
		if res.Chaos == nil {
			t.Fatalf("run %d: chaos outcome missing", res.Run.ID)
		}
		if res.Run.Arm == "calm" && res.Chaos.Crashes != 0 {
			t.Fatalf("calm arm crashed %d times", res.Chaos.Crashes)
		}
	}
}

// TestProgress checks the ticker fires once per run, reaches the total,
// and is serialized (the race detector guards the lock discipline).
func TestProgress(t *testing.T) {
	m := smallStorageMatrix()
	var mu sync.Mutex
	calls := 0
	maxDone := 0
	e := Engine{Workers: 4, Progress: func(done, total int, res Result) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > maxDone {
			maxDone = done
		}
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
	}}
	e.Execute(m.Expand())
	if calls != 4 || maxDone != 4 {
		t.Errorf("progress calls/maxDone = %d/%d, want 4/4", calls, maxDone)
	}
}

// TestUnknownKindErr pins that a defective run surfaces as a result error,
// not a panic, and counts as an engine error in the totals.
func TestUnknownKindErr(t *testing.T) {
	results := Engine{}.Execute([]Run{{ID: 0, Kind: "quantum"}})
	if results[0].Err == "" {
		t.Fatal("unknown kind did not error")
	}
	rep := BuildReport(Matrix{}, results)
	if rep.Totals.Errors != 1 {
		t.Fatalf("totals errors = %d, want 1", rep.Totals.Errors)
	}
	if rep.FirstError() == nil {
		t.Fatal("FirstError = nil")
	}
}
