package inject

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/membership"
	"repro/internal/spectest"
	"repro/internal/telemetry"
)

// These tests attack the causal-trace layer with the failure it exists for:
// a fail-stop halt of the whole platform in the middle of the very activity
// the trace describes. The journal recovered from the SCRAM host's
// *committed* stable storage — no flush, exactly what a post-mortem reader
// gets after a crash — must match the live ring up to the one-frame staging
// lag, and the traces assembled from it must render byte-identically to the
// live ones over the covered frames, open spans and all.

// recoverCommitted polls the SCRAM host's committed stable storage without
// flushing: the post-crash view. recoverRing (the campaign helper) flushes
// first and so models an orderly shutdown; this models the disorderly one.
func recoverCommitted(t *testing.T, sys *core.System) []telemetry.Event {
	t.Helper()
	snap, err := sys.Pool().PollStable(sys.SCRAMProc())
	if err != nil {
		t.Fatalf("polling SCRAM host stable storage: %v", err)
	}
	ring, err := telemetry.RecoverRing(snap)
	if err != nil {
		t.Fatalf("recovering ring: %v", err)
	}
	return ring
}

// requireFreshPrefix checks the staleness contract: the recovered journal is
// a prefix of the live ring, and every event it is missing belongs to the
// final (uncommitted) frame — the recovered black box trails the live system
// by at most one frame.
func requireFreshPrefix(t *testing.T, live, recovered []telemetry.Event) {
	t.Helper()
	if len(recovered) == 0 {
		t.Fatal("no events recovered from committed stable storage")
	}
	if len(recovered) > len(live) {
		t.Fatalf("recovered %d events, live ring has only %d", len(recovered), len(live))
	}
	for i := range recovered {
		if !reflect.DeepEqual(recovered[i], live[i]) {
			t.Fatalf("recovered event %d diverges from live:\n  recovered %+v\n  live      %+v",
				i, recovered[i], live[i])
		}
	}
	last := live[len(live)-1].Frame
	for _, e := range live[len(recovered):] {
		if e.Frame < last {
			t.Fatalf("staleness contract broken: event at frame %d missing from the recovered journal, live head is frame %d",
				e.Frame, last)
		}
	}
}

// renderTraceReports renders every trace's waterfall the way flightrec
// -trace -json and the live plane's /trace/<id> do.
func renderTraceReports(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tv := range telemetry.AssembleTraces(events) {
		if tv.ID == 0 {
			continue
		}
		if err := cli.WriteJSON(&buf, telemetry.BuildTraceReport(tv)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTraceSurvivesHaltMidWindow halts the platform in the middle of a
// transition window and checks the recovered journal still carries the
// in-flight reconfiguration as an open root span, rendering byte-identically
// to the live trace over the committed frames.
func TestTraceSurvivesHaltMidWindow(t *testing.T) {
	rs := spectest.ThreeConfig()
	sys, err := core.NewSystem(core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     spectest.ThreeConfigClassifier,
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script:         []envmon.Event{{Frame: 10, Factor: "alt1", Value: "failed"}},
		TraceSeed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Drive frame by frame until the kernel is mid-window, then two frames
	// further so the window's opening spans have committed, then "crash".
	for i := 0; i < 40 && !sys.Kernel().Reconfiguring(); i++ {
		if err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.Kernel().Reconfiguring() {
		t.Fatal("no transition window opened within 40 frames")
	}
	if err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if !sys.Kernel().Reconfiguring() {
		t.Fatal("window already closed; halt is not mid-transition")
	}

	_, rec := sys.Telemetry()
	live := rec.Events()
	recovered := recoverCommitted(t, sys)
	requireFreshPrefix(t, live, recovered)

	// The in-flight reconfiguration must be on the recovered black box as
	// an open root span: start recorded, no end — a window cut short.
	var root telemetry.Span
	found := false
	for _, tv := range telemetry.AssembleTraces(recovered) {
		if r, ok := tv.Root(); ok && tv.ID != 0 {
			root, found = r, true
		}
	}
	if !found {
		t.Fatal("recovered journal has no reconfiguration root span")
	}
	if root.End != -1 {
		t.Fatalf("recovered root span is closed (end %d); expected an open in-flight window", root.End)
	}

	liveAtCut := renderTraceReports(t, live[:len(recovered)])
	fromRecovered := renderTraceReports(t, recovered)
	if !bytes.Equal(liveAtCut, fromRecovered) {
		t.Errorf("trace waterfalls diverge over the committed frames:\nlive:\n%s\nrecovered:\n%s",
			liveAtCut, fromRecovered)
	}
}

// TestTraceSurvivesHaltMidChainedWindow arranges the chained-urgent case —
// a processor loss mid-window chains a follow-up transition onto the
// completing one — then halts inside the chained window. The recovered
// journal must preserve the causal link: the chain span parents to the open
// root, and the follow-up's phase spans parent to the chain span.
func TestTraceSurvivesHaltMidChainedWindow(t *testing.T) {
	rs := spectest.ThreeConfigWithSpares(1)
	// The fused chain window (full -> reduced -> minimal sharing the
	// completion frame) needs 9 frames; the canonical 8-frame bounds are
	// deliberately tight, so widen them for the chained arm.
	for i := range rs.Transitions {
		if rs.Transitions[i].MaxFrames < 12 {
			rs.Transitions[i].MaxFrames = 12
		}
	}
	sys, err := core.NewSystem(core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     spectest.ThreeConfigClassifier,
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script: []envmon.Event{
			{Frame: 10, Factor: "alt1", Value: "failed"},
			{Frame: 12, Factor: "alt2", Value: "failed"},
		},
		// The spare's loss mid-window is the urgent hardware-fault signal
		// that arms chaining; by completion the environment demands
		// minimal, so the follow-up fuses onto the closing window.
		ProcEvents: []core.ProcEvent{{Frame: 12, Proc: "p3", Kind: core.ProcFail}},
		TraceSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	chained := func() bool {
		target, _, ok := sys.Kernel().PlanTarget()
		return ok && target == spectest.CfgMinimal
	}
	for i := 0; i < 40 && !chained(); i++ {
		if err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	if !chained() {
		t.Fatal("no chained follow-up window opened within 40 frames")
	}
	if err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if !chained() {
		t.Fatal("chained window already closed; halt is not mid-chain")
	}

	_, rec := sys.Telemetry()
	live := rec.Events()
	recovered := recoverCommitted(t, sys)
	requireFreshPrefix(t, live, recovered)

	// Walk the recovered trace for the chained-urgent causal structure.
	var tv telemetry.TraceView
	found := false
	for _, cand := range telemetry.AssembleTraces(recovered) {
		if _, ok := cand.Root(); ok && cand.ID != 0 {
			tv, found = cand, true
		}
	}
	if !found {
		t.Fatal("recovered journal has no reconfiguration trace")
	}
	root, _ := tv.Root()
	if root.End != -1 {
		t.Fatalf("root span closed (end %d); the chain should have kept the fused window open", root.End)
	}
	var chain telemetry.Span
	for _, s := range tv.Spans {
		if s.Name == telemetry.SpanChain {
			chain = s
		}
	}
	if chain.ID == 0 {
		t.Fatal("recovered trace has no chain span")
	}
	if chain.Parent != root.ID {
		t.Errorf("chain span parents to %d, want the root span %d", chain.Parent, root.ID)
	}
	childPhases := 0
	for _, s := range tv.Spans {
		if s.Parent == chain.ID {
			childPhases++
		}
	}
	if childPhases == 0 {
		t.Error("no follow-up phase span parents to the chain span; the chained-urgent link is lost")
	}

	liveAtCut := renderTraceReports(t, live[:len(recovered)])
	fromRecovered := renderTraceReports(t, recovered)
	if !bytes.Equal(liveAtCut, fromRecovered) {
		t.Errorf("trace waterfalls diverge over the committed frames:\nlive:\n%s\nrecovered:\n%s",
			liveAtCut, fromRecovered)
	}
}

// TestTraceSurvivesHaltMidMembershipCatchup halts the platform while a
// joining processor is still catching up and checks the recovered journal
// carries the epoch marks up to the staleness bound: the join's epoch
// change is on the black box even though the member never finished.
func TestTraceSurvivesHaltMidMembershipCatchup(t *testing.T) {
	rs := spectest.ThreeConfigWithSpares(1)
	sys, err := core.NewSystem(core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     spectest.ThreeConfigClassifier,
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		TraceSeed:      7,
		Membership: &core.MembershipOptions{
			Events:        []membership.Event{{Frame: 8, Proc: "p3", Op: membership.OpJoin}},
			CatchUpFrames: 6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	joining := func() bool {
		for _, m := range sys.Membership().View().Members {
			if m.Proc == "p3" && m.Status == membership.StatusJoining {
				return true
			}
		}
		return false
	}
	for i := 0; i < 40 && !joining(); i++ {
		if err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	if !joining() {
		t.Fatal("p3 never entered catch-up within 40 frames")
	}
	if err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if !joining() {
		t.Fatal("catch-up already finished; halt is not mid-catchup")
	}

	_, rec := sys.Telemetry()
	live := rec.Events()
	recovered := recoverCommitted(t, sys)
	requireFreshPrefix(t, live, recovered)

	epochMarks := func(events []telemetry.Event) int {
		n := 0
		for _, e := range events {
			if e.Kind == telemetry.KindSpanStart && e.Phase == telemetry.SpanEpoch {
				n++
			}
		}
		return n
	}
	if got := epochMarks(recovered); got == 0 {
		t.Error("join's epoch change missing from the recovered journal")
	} else if want := epochMarks(live[:len(recovered)]); got != want {
		t.Errorf("recovered journal has %d epoch marks, live has %d over the same frames", got, want)
	}
}
