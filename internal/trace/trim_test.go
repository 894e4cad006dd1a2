package trace

import (
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

func trimTestTrace(t *testing.T, cycles int64) *Trace {
	t.Helper()
	tr := &Trace{System: "trim-test"}
	for c := int64(0); c < cycles; c++ {
		status := StatusNormal
		// cycles 10..12 restricted: one completed reconfiguration
		if c >= 10 && c < 13 {
			status = StatusHalting
		}
		err := tr.Append(SysState{
			Cycle:  c,
			Config: "full",
			Apps:   map[spec.AppID]AppState{"a": {Status: status, Spec: "s", PreOK: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestTrimKeepsAbsoluteCycles(t *testing.T) {
	tr := trimTestTrace(t, 40)
	full := tr.Reconfigs()
	if len(full) != 1 || full[0].StartC != 10 || full[0].EndC != 13 {
		t.Fatalf("untrimmed reconfigs = %+v", full)
	}

	tr.Trim(8)
	if tr.Base != 8 || tr.Len() != 32 || tr.End() != 40 {
		t.Fatalf("after Trim(8): base=%d len=%d end=%d", tr.Base, tr.Len(), tr.End())
	}
	if _, ok := tr.At(7); ok {
		t.Fatal("At(7) visible after trim")
	}
	s, ok := tr.At(10)
	if !ok || s.Cycle != 10 {
		t.Fatalf("At(10) = %+v, %v", s, ok)
	}
	if got := tr.Reconfigs(); len(got) != 1 || got[0] != full[0] {
		t.Fatalf("trimmed reconfigs = %+v, want %+v", got, full)
	}

	// Append continues at the absolute cycle.
	if err := tr.Append(SysState{Cycle: 40, Config: "full",
		Apps: map[spec.AppID]AppState{"a": {Status: StatusNormal, Spec: "s", PreOK: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(SysState{Cycle: 40}); err == nil {
		t.Fatal("non-contiguous append accepted")
	}

	// Trim below base and past end are safe.
	tr.Trim(3)
	if tr.Base != 8 {
		t.Fatalf("Trim below base moved base to %d", tr.Base)
	}
	tr.Trim(1000)
	if tr.Base != 41 || tr.Len() != 0 {
		t.Fatalf("Trim past end: base=%d len=%d", tr.Base, tr.Len())
	}
}

func TestTrimmedTraceJSONRoundTrip(t *testing.T) {
	tr := trimTestTrace(t, 20)
	tr.Trim(5)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Base != 5 || back.Len() != 15 {
		t.Fatalf("round trip: base=%d len=%d", back.Base, back.Len())
	}
	// A tampered cycle fails validation against Base.
	back.States[0].Cycle = 99
	raw2, _ := json.Marshal(&back)
	if err := new(Trace).UnmarshalJSON(raw2); err == nil {
		t.Fatal("tampered trimmed trace decoded")
	}
}

// TestTrimInsideWindowDropsCutReconfig trims a trace in the middle of a
// reconfiguration window. The retained part starts mid-window, so the
// window's real start is gone: Reconfigs must not report it as a completed
// reconfiguration starting at Base, and SP1 must not flag it. The untrimmed
// trace is unchanged.
func TestTrimInsideWindowDropsCutReconfig(t *testing.T) {
	whole := cleanReconfigTrace(t)
	want := []Reconfiguration{{StartC: 2, EndC: 5, From: "full", To: "degraded"}}
	if got := whole.Reconfigs(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("untrimmed reconfigs = %+v, want %+v", got, want)
	}
	if v := CheckSP1(whole); len(v) != 0 {
		t.Fatalf("untrimmed SP1 violations: %v", v)
	}

	cut := cleanReconfigTrace(t)
	cut.Trim(3) // cycle 3 is inside the [2,5] window
	if got := cut.Reconfigs(); len(got) != 0 {
		t.Errorf("trimmed reconfigs = %+v, want none (the window's start was trimmed)", got)
	}
	if v := CheckSP1(cut); len(v) != 0 {
		t.Errorf("trimmed SP1 violations: %v", v)
	}
	if v := CheckAll(cut, twoAppSpec()); len(v) != 0 {
		t.Errorf("trimmed CheckAll violations: %v", v)
	}
}
