package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scram"
	"repro/internal/spec"
)

// runChurn builds the canonical system under alternator churn with the given
// retention horizon and runs it to frame end.
func runChurn(t *testing.T, retain, end int64, mutate func(*Options)) *System {
	t.Helper()
	s, _, _ := buildSystem(t, func(o *Options) {
		o.Script = churnScript(20, end)
		o.RetainFrames = retain
		if mutate != nil {
			mutate(o)
		}
	})
	if err := s.StepTo(end); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkLogHorizon requires every protocol-log entry to lie inside the last
// two retention windows, and the log to be the tail of the unbounded one.
func checkLogHorizon(t *testing.T, got, full []scram.Event, retain, end int64) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("protocol log empty under churn")
	}
	for _, e := range got {
		if e.Frame < end-2*retain {
			t.Fatalf("log entry %v is older than two %d-frame windows at frame %d", e, retain, end)
		}
	}
	if len(got) > len(full) || !reflect.DeepEqual(got, full[len(full)-len(got):]) {
		t.Fatalf("bounded log is not the tail of the unbounded one:\n bounded %v\n tail    %v", got, full[max(0, len(full)-len(got)):])
	}
}

// TestKernelLogFollowsRetention steps a churning system to 40 windows and
// requires the SCRAM protocol log to hold no more than two windows of
// history — and, entry for entry, the tail of the log an unbounded run
// keeps.
func TestKernelLogFollowsRetention(t *testing.T) {
	const retain, end = 50, 40 * 50
	full := runChurn(t, 0, end, nil).Kernel().Events()
	got := runChurn(t, retain, end, nil).Kernel().Events()
	checkLogHorizon(t, got, full, retain, end)
}

// TestKernelLogRetentionSurvivesTakeover fails the SCRAM host early in a
// churning run: the kernel the standby restores must inherit the horizon,
// or its log would keep every entry since the takeover.
func TestKernelLogRetentionSurvivesTakeover(t *testing.T) {
	const retain, end, failAt = 50, 40 * 50, 3 * 50
	takeover := func(o *Options) {
		o.SCRAMProc = "p2"
		o.StandbyProc = "p1"
		o.ProcEvents = []ProcEvent{{Frame: failAt, Proc: "p2", Kind: ProcFail}}
	}
	fullSys := runChurn(t, 0, end, takeover)
	s := runChurn(t, retain, end, takeover)
	if at, ok := s.TookOverAt(); !ok || at != failAt {
		t.Fatalf("takeover = %d,%v; want frame %d", at, ok, failAt)
	}
	full := fullSys.Kernel().Events()
	if full[0].Frame > 2*failAt {
		t.Fatalf("unbounded restored log starts at frame %d; the run does not exercise the restored kernel's horizon", full[0].Frame)
	}
	checkLogHorizon(t, s.Kernel().Events(), full, retain, end)
}

// unboundedLogDigest is the sha256 of the rendered protocol log of the
// 2000-frame churn run with RetainFrames 0, recorded before the log had a
// horizon: without one, the log must not change by a byte.
const unboundedLogDigest = "89dee0fc68eeecae3be3a5d49c2f46f07ea6ff2b4c3fc7da0ff5826157eed750"

// TestKernelLogUnboundedIsComplete runs the churn system without retention:
// the protocol log keeps every entry — each one the flight recorder
// mirrored — and renders exactly as it did before logs could be bounded.
func TestKernelLogUnboundedIsComplete(t *testing.T) {
	s := runChurn(t, 0, 2000, func(o *Options) { o.TelemetryCapacity = 1 << 16 })
	log := s.Kernel().Events()
	var mirrored []scram.Event
	_, rec := s.Telemetry()
	for _, e := range rec.Events() {
		switch scram.EventKind(e.Kind) {
		case scram.EventSignal, scram.EventTrigger, scram.EventHalt, scram.EventPrepare,
			scram.EventInitialize, scram.EventComplete, scram.EventRetarget, scram.EventDeferred:
			mirrored = append(mirrored, scram.Event{Frame: e.Frame, Kind: scram.EventKind(e.Kind),
				Config: spec.ConfigID(e.Config), Detail: e.Detail})
		}
	}
	if !reflect.DeepEqual(log, mirrored) {
		t.Fatalf("protocol log (%d entries) differs from the %d protocol events the flight recorder mirrored", len(log), len(mirrored))
	}
	h := sha256.New()
	for _, e := range log {
		fmt.Fprintln(h, e)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != unboundedLogDigest {
		t.Fatalf("unbounded protocol log digest %s (%d entries), want %s", got, len(log), unboundedLogDigest)
	}
}
