package telemetry

import (
	"fmt"
	"sort"
	"strconv"
)

// Span is one assembled causal-trace span: the join of a span-start event
// with its span-end (when one was recorded). An End of -1 is an open span
// — either still running when the ring was read, or orphaned by a
// fail-stop halt mid-span, which is precisely the evidence the black box
// exists to preserve.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Name   string `json:"name"`
	App    string `json:"app,omitempty"`
	Config string `json:"config,omitempty"`
	From   string `json:"from,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Attrs  Attrs  `json:"attrs,omitempty"`
}

// Frames returns the span's inclusive frame count, or -1 while open.
func (s Span) Frames() int64 {
	if s.End < 0 {
		return -1
	}
	return s.End - s.Start + 1
}

// TraceView is one assembled causal trace: every span sharing a trace
// identity, in span-ID (creation) order. The view with ID 0 collects
// spans that never joined a trace — signals whose environment change the
// choice function decided needed no reconfiguration.
type TraceView struct {
	ID    int64
	Spans []Span
}

// Root returns the trace's reconfiguration root span, if assembled.
func (t TraceView) Root() (Span, bool) {
	for _, s := range t.Spans {
		if s.Name == SpanReconfig {
			return s, true
		}
	}
	return Span{}, false
}

// TraceIDString renders a trace identity the way every surface (flightrec,
// the live telemetry plane, campaign reports) spells it: 16 hex digits.
func TraceIDString(id int64) string {
	return fmt.Sprintf("%016x", uint64(id))
}

// ParseTraceID parses the 16-hex-digit form back; it also accepts plain
// decimal for hand-typed queries.
func ParseTraceID(s string) (int64, error) {
	if v, err := strconv.ParseUint(s, 16, 64); err == nil {
		return int64(v), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: malformed trace id %q", s)
	}
	return v, nil
}

// AssembleTraces joins the ring's span events into traces. Events must be
// in ring (sequence) order; the result is a pure function of the event
// bytes, so the assembly of a recovered journal is byte-identical to the
// live one over the frames the journal covers. Traces appear in order of
// first appearance; spans within a trace in creation order. A span whose
// start was evicted from the ring assembles from its end event alone with
// Start = -1.
func AssembleTraces(events []Event) []TraceView {
	spans := make(map[int64]*Span)
	var order []int64
	for _, e := range events {
		if e.Kind != KindSpanStart && e.Kind != KindSpanEnd {
			continue
		}
		id := e.Attrs.Value(SpanAttrSpan)
		if id == 0 {
			continue
		}
		sp := spans[id]
		if sp == nil {
			sp = &Span{ID: id, Start: -1, End: -1}
			spans[id] = sp
			order = append(order, id)
		}
		if t := e.Attrs.Value(SpanAttrTrace); t != 0 {
			sp.Trace = t
		}
		if p := e.Attrs.Value(SpanAttrParent); p != 0 {
			sp.Parent = p
		}
		if e.Phase != "" {
			sp.Name = e.Phase
		}
		if e.App != "" {
			sp.App = e.App
		}
		if e.Config != "" {
			sp.Config = e.Config
		}
		if e.From != "" {
			sp.From = e.From
		}
		if e.Detail != "" {
			sp.Detail = e.Detail
		}
		// Keyed merge: the end event's values win over the start's, and
		// With keeps the key order whatever order the events come in.
		for _, a := range e.Attrs {
			switch a.Key {
			case SpanAttrSpan, SpanAttrTrace, SpanAttrParent, SpanAttrEnd:
				continue
			}
			sp.Attrs = sp.Attrs.With(a.Key, a.Val)
		}
		if e.Kind == KindSpanStart {
			sp.Start = e.Frame
			if end, ok := e.Attrs.Get(SpanAttrEnd); ok {
				sp.End = end
			}
		} else {
			sp.End = e.Frame
		}
	}

	byTrace := make(map[int64]*TraceView)
	var traces []*TraceView
	for _, id := range order {
		sp := spans[id]
		tv := byTrace[sp.Trace]
		if tv == nil {
			tv = &TraceView{ID: sp.Trace}
			byTrace[sp.Trace] = tv
			traces = append(traces, tv)
		}
		tv.Spans = append(tv.Spans, *sp)
	}
	// Span creation order tracks event order, but a pending span adopted
	// into a trace late (the signal span) was created before the root;
	// creation order within the trace is already the causal order we want.
	// Trace order: first appearance of any member span, with the untraced
	// bucket (ID 0) last.
	sort.SliceStable(traces, func(i, j int) bool {
		if (traces[i].ID == 0) != (traces[j].ID == 0) {
			return traces[j].ID == 0
		}
		return false // stable: keep first-appearance order otherwise
	})
	out := make([]TraceView, len(traces))
	for i, tv := range traces {
		out[i] = *tv
	}
	return out
}

// FindTrace returns the assembled trace with the given identity.
func FindTrace(events []Event, id int64) (TraceView, bool) {
	for _, tv := range AssembleTraces(events) {
		if tv.ID == id {
			return tv, true
		}
	}
	return TraceView{}, false
}

// TraceSpanRow is one waterfall row of a trace report.
type TraceSpanRow struct {
	Span   int64  `json:"span"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	App    string `json:"app,omitempty"`
	Config string `json:"config,omitempty"`
	From   string `json:"from,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Frames int64  `json:"frames"`
	Attrs  Attrs  `json:"attrs,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// TraceReport is the per-reconfiguration waterfall every surface renders:
// cmd/flightrec -trace, the live plane's /trace/<id>, and the campaign
// aggregate's slowest-trace digests. It is a pure function of a TraceView,
// so the same ring produces the same bytes everywhere — CI diffs the HTTP
// body against the flightrec rendering to hold that line.
type TraceReport struct {
	ID       string         `json:"id"`
	Seq      int64          `json:"seq,omitempty"`
	From     string         `json:"from,omitempty"`
	Config   string         `json:"config,omitempty"`
	Start    int64          `json:"start"`
	End      int64          `json:"end"`
	Window   int64          `json:"window"`
	Bound    int64          `json:"bound,omitempty"`
	Margin   int64          `json:"margin"`
	Complete bool           `json:"complete"`
	Spans    []TraceSpanRow `json:"spans"`
}

// BuildTraceReport renders a trace's waterfall. Window, bound and margin
// come from the root span (the kernel stamps the realized window and the
// declared transition bound on the root's close); an open root reports
// End, Window and Margin of -1 with Complete false — the shape of a trace
// cut short by a fail-stop halt.
func BuildTraceReport(tv TraceView) TraceReport {
	r := TraceReport{
		ID:     TraceIDString(tv.ID),
		Start:  -1,
		End:    -1,
		Window: -1,
		Margin: -1,
	}
	if root, ok := tv.Root(); ok {
		r.Start, r.End = root.Start, root.End
		r.From, r.Config = root.From, root.Config
		r.Seq = root.Attrs.Value("seq")
		r.Bound = root.Attrs.Value("bound")
		if root.End >= 0 {
			r.Complete = true
			r.Window = root.Frames()
			if w, ok := root.Attrs.Get("window"); ok {
				r.Window = w
			}
			if m, ok := root.Attrs.Get("margin"); ok {
				r.Margin = m
			} else if r.Bound > 0 {
				r.Margin = r.Bound - r.Window
			} else {
				r.Margin = 0
			}
		}
	}
	r.Spans = make([]TraceSpanRow, 0, len(tv.Spans))
	for _, s := range tv.Spans {
		r.Spans = append(r.Spans, TraceSpanRow{
			Span:   s.ID,
			Parent: s.Parent,
			Name:   s.Name,
			App:    s.App,
			Config: s.Config,
			From:   s.From,
			Start:  s.Start,
			End:    s.End,
			Frames: s.Frames(),
			Attrs:  s.Attrs,
			Detail: s.Detail,
		})
	}
	return r
}

// PhaseFrames sums the closed spans' frame counts by span name — the
// per-phase duration breakdown campaign aggregation merges across runs.
func (t TraceView) PhaseFrames() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range t.Spans {
		if f := s.Frames(); f >= 0 {
			out[s.Name] += f
		}
	}
	return out
}
