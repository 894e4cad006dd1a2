package telemetry

import (
	"reflect"
	"testing"
)

func TestTraceIDDeterministicAndPositive(t *testing.T) {
	a := traceIDFor(42, 100, 1)
	b := traceIDFor(42, 100, 1)
	if a != b {
		t.Fatalf("trace ID not deterministic: %d vs %d", a, b)
	}
	if a <= 0 {
		t.Fatalf("trace ID not positive: %d", a)
	}
	if traceIDFor(42, 100, 2) == a || traceIDFor(43, 100, 1) == a || traceIDFor(42, 101, 1) == a {
		t.Fatalf("trace IDs collide across ordinal/seed/frame changes")
	}
}

func TestTraceIDRoundTripsThroughString(t *testing.T) {
	id := traceIDFor(7, 12, 3)
	s := TraceIDString(id)
	if len(s) != 16 {
		t.Fatalf("trace ID string %q not 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %d, %v; want %d", s, back, err, id)
	}
	if _, err := ParseTraceID("not-a-trace"); err == nil {
		t.Fatalf("ParseTraceID accepted garbage")
	}
}

func TestNilSpanBookIsInert(t *testing.T) {
	var b *SpanBook
	if b.Enabled() {
		t.Fatalf("nil book reports enabled")
	}
	if id := b.OpenPending(1, SpanSignal, Event{}); id != 0 {
		t.Fatalf("nil book allocated span %d", id)
	}
	b.ClosePending(2, 1, Event{})
	if tr, root := b.OpenTrace(3, 1, Event{}); tr != 0 || root != 0 {
		t.Fatalf("nil book opened trace %d/%d", tr, root)
	}
	b.CloseTrace(4, Event{})
	b.Mark(5, SpanEpoch, Event{})
}

// TestSpanBookLifecycleAssembles drives a full reconfiguration's worth of
// span traffic — pending signal adopted on trigger, phase children, a
// chained follow-up whose phases parent to the chain span, an epoch mark
// inside the trace — and checks the assembled view.
func TestSpanBookLifecycleAssembles(t *testing.T) {
	rec := NewRecorder(128)
	b := NewSpanBook(42, rec)

	sig := b.OpenPending(10, SpanSignal, Event{App: "envmon", Detail: "press"})
	if sig == 0 {
		t.Fatalf("pending span not allocated")
	}
	trace, root := b.OpenTrace(12, 10, Event{From: "cruise", Config: "descent", Attrs: attrsOf(map[string]int64{"seq": 1, "bound": 40})})
	if trace == 0 || root == 0 {
		t.Fatalf("trace not opened")
	}
	b.ClosePending(12, sig, Event{})
	halt := b.OpenSpan(13, SpanHalt, Event{})
	b.CloseSpan(14, halt, SpanHalt, Event{})
	b.Mark(14, SpanEpoch, Event{Attrs: attrsOf(map[string]int64{"epoch": 3})})
	chain := b.OpenChain(15, Event{Config: "landing"})
	if chain == 0 {
		t.Fatalf("chain span not opened")
	}
	init := b.OpenSpan(16, SpanInit, Event{})
	b.CloseSpan(18, init, SpanInit, Event{})
	b.CloseTrace(18, Event{Attrs: attrsOf(map[string]int64{"window": 7, "bound": 40, "margin": 33})})

	traces := AssembleTraces(rec.Events())
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1: %+v", len(traces), traces)
	}
	tv := traces[0]
	if tv.ID != trace {
		t.Fatalf("trace ID %d, want %d", tv.ID, trace)
	}
	byName := map[string]Span{}
	for _, s := range tv.Spans {
		byName[s.Name] = s
	}
	if len(tv.Spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(tv.Spans), tv.Spans)
	}
	rootSpan, ok := tv.Root()
	if !ok || rootSpan.ID != root || rootSpan.Start != 12 || rootSpan.End != 18 {
		t.Fatalf("root span wrong: %+v", rootSpan)
	}
	if s := byName[SpanSignal]; s.Start != 10 || s.End != 12 || s.Trace != trace || s.Parent != root {
		t.Fatalf("signal span not adopted into trace: %+v", s)
	}
	if s := byName[SpanHalt]; s.Parent != root || s.Frames() != 2 {
		t.Fatalf("halt span wrong: %+v", s)
	}
	if s := byName[SpanEpoch]; s.Parent != root || s.Frames() != 1 || s.Attrs.Value("epoch") != 3 {
		t.Fatalf("epoch mark wrong: %+v", s)
	}
	if s := byName[SpanChain]; s.Parent != root || s.End != 18 {
		t.Fatalf("chain span wrong: %+v", s)
	}
	if s := byName[SpanInit]; s.Parent != byName[SpanChain].ID {
		t.Fatalf("chained phase does not parent to chain span: %+v", s)
	}
	if w := rootSpan.Attrs.Value("window"); w != 7 {
		t.Fatalf("root close attrs lost: %+v", rootSpan.Attrs)
	}
}

func TestPendingSpanClosesTracelessWithoutTrigger(t *testing.T) {
	rec := NewRecorder(16)
	b := NewSpanBook(1, rec)
	sig := b.OpenPending(5, SpanSignal, Event{App: "envmon"})
	b.ClosePending(5, sig, Event{Detail: "no-op"})
	traces := AssembleTraces(rec.Events())
	if len(traces) != 1 || traces[0].ID != 0 {
		t.Fatalf("traceless signal should land in the untraced bucket: %+v", traces)
	}
	if s := traces[0].Spans[0]; s.Trace != 0 || s.Parent != 0 || s.End != 5 {
		t.Fatalf("traceless span wrong: %+v", s)
	}
}

func TestMarkOutsideTraceIsStandalone(t *testing.T) {
	rec := NewRecorder(16)
	b := NewSpanBook(9, rec)
	b.Mark(20, SpanEpoch, Event{Attrs: attrsOf(map[string]int64{"epoch": 1})})
	b.Mark(30, SpanEpoch, Event{Attrs: attrsOf(map[string]int64{"epoch": 2})})
	traces := AssembleTraces(rec.Events())
	if len(traces) != 2 {
		t.Fatalf("each standalone mark should open its own trace: %+v", traces)
	}
	if traces[0].ID == traces[1].ID {
		t.Fatalf("standalone marks share a trace ID")
	}
	for _, tv := range traces {
		s := tv.Spans[0]
		if s.Parent != 0 || s.Frames() != 1 || s.Trace != tv.ID {
			t.Fatalf("standalone mark span wrong: %+v", s)
		}
	}
}

// TestAssembleOpenSpansAfterHalt is survival-by-construction at the unit
// level: a book whose trace never closes (the system fail-stopped) still
// assembles, with the open spans reporting End -1.
func TestAssembleOpenSpansAfterHalt(t *testing.T) {
	rec := NewRecorder(64)
	b := NewSpanBook(3, rec)
	b.OpenTrace(8, 7, Event{From: "a", Config: "b"})
	b.OpenSpan(9, SpanHalt, Event{})
	traces := AssembleTraces(rec.Events())
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("open trace did not assemble: %+v", traces)
	}
	for _, s := range traces[0].Spans {
		if s.End != -1 || s.Frames() != -1 {
			t.Fatalf("open span should report End -1: %+v", s)
		}
	}
	r := BuildTraceReport(traces[0])
	if r.Complete || r.End != -1 || r.Window != -1 || r.Margin != -1 {
		t.Fatalf("open-trace report should be incomplete: %+v", r)
	}
}

func TestBuildTraceReportWaterfall(t *testing.T) {
	rec := NewRecorder(64)
	b := NewSpanBook(11, rec)
	_, root := b.OpenTrace(100, 99, Event{From: "x", Config: "y", Attrs: attrsOf(map[string]int64{"seq": 4, "bound": 30})})
	h := b.OpenSpan(101, SpanHalt, Event{})
	b.CloseSpan(103, h, SpanHalt, Event{})
	b.CloseTrace(110, Event{Attrs: attrsOf(map[string]int64{"window": 11, "bound": 30, "margin": 19})})
	tv := AssembleTraces(rec.Events())[0]
	r := BuildTraceReport(tv)
	if !r.Complete || r.Start != 100 || r.End != 110 || r.Window != 11 || r.Bound != 30 || r.Margin != 19 {
		t.Fatalf("report header wrong: %+v", r)
	}
	if r.From != "x" || r.Config != "y" || r.Seq != 4 {
		t.Fatalf("report identity wrong: %+v", r)
	}
	if len(r.Spans) != 2 || r.Spans[0].Span != root || r.Spans[1].Frames != 3 {
		t.Fatalf("waterfall rows wrong: %+v", r.Spans)
	}
	if r.ID != TraceIDString(tv.ID) {
		t.Fatalf("report ID %q mismatches trace %d", r.ID, tv.ID)
	}
	pf := tv.PhaseFrames()
	if pf[SpanReconfig] != 11 || pf[SpanHalt] != 3 {
		t.Fatalf("phase frames wrong: %+v", pf)
	}
}

func TestAssembleIsPureFunctionOfEvents(t *testing.T) {
	rec := NewRecorder(64)
	b := NewSpanBook(5, rec)
	sig := b.OpenPending(1, SpanSignal, Event{})
	b.OpenTrace(3, 1, Event{})
	b.ClosePending(3, sig, Event{})
	b.CloseTrace(9, Event{})
	ev := rec.Events()
	a1 := AssembleTraces(ev)
	a2 := AssembleTraces(append([]Event(nil), ev...))
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("assembly not deterministic")
	}
}
