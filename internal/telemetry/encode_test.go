package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// TestEventEncoderMatchesStdlib pins the hand-rolled persistence encoder to
// encoding/json byte for byte. If a field is added to Event, FrameState or
// AppSnap without teaching encode.go about it, the new field silently
// vanishes from persisted rings — this test is what catches that.
func TestEventEncoderMatchesStdlib(t *testing.T) {
	events := []Event{
		// Minimal: every omitempty field empty.
		{Seq: 0, Frame: 0, Kind: KindSignal},
		// All scalar fields set, including strings that exercise the
		// escaper: quotes, backslashes, control characters, and the
		// HTML-sensitive <, >, & that stdlib escapes as \u00XX.
		{
			Seq:    42,
			Frame:  -7,
			Kind:   KindTrigger,
			App:    `app"quoted"`,
			Host:   "h\\back\\slash",
			Config: "cfg\nnewline\ttab\rret",
			From:   "a<b>&c",
			Phase:  "init\x01ctl",
			Detail: "transition c1 -> c2 (λ uniçode ☃)",
		},
		// Attrs: emitted in sorted key order, as stdlib emits a map.
		{
			Seq:   7,
			Frame: 3,
			Kind:  KindComplete,
			Attrs: attrsOf(map[string]int64{"zz": -1, "aa": 9, "m<id>": 0, "frame": 1 << 40}),
		},
		// Frame state with nil Apps map.
		{
			Seq:   8,
			Frame: 4,
			Kind:  KindFrameState,
			State: &FrameState{Config: "c1", Env: "nominal"},
		},
		// Frame state with several apps, sorted, all AppSnap fields.
		{
			Seq:   9,
			Frame: 5,
			Kind:  KindFrameState,
			App:   "only-app",
			State: &FrameState{
				Config: "c2",
				Env:    "deg<raded>",
				Apps: map[spec.AppID]AppSnap{
					"b": {Status: trace.StatusPreparing, Spec: "s2", PreOK: false},
					"a": {Status: trace.StatusNormal, Spec: `s"1`, PreOK: true},
					"c": {Status: trace.StatusHalted, Spec: "", PreOK: false},
				},
			},
		},
	}

	var enc eventEncoder
	for i := range events {
		e := &events[i]
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("stdlib marshal event %d: %v", i, err)
		}
		got := enc.appendEvent(e)
		if string(got) != string(want) {
			t.Errorf("event %d encoding diverges from stdlib:\n got  %s\n want %s", i, got, want)
		}
		// Round-trip: the persisted record must decode back to the event.
		var back Event
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("round-trip unmarshal event %d: %v", i, err)
		}
		if !reflect.DeepEqual(back.Attrs, e.Attrs) {
			t.Errorf("event %d attrs round-trip to %v, want %v", i, back.Attrs, e.Attrs)
		}
	}
}

// attrsOf builds an attribute set from a map literal, in whatever order
// the map iterates.
func attrsOf(m map[string]int64) Attrs {
	var a Attrs
	for k, v := range m {
		a = a.With(k, v)
	}
	return a
}

// TestAttrsMatchMapEncoding checks Attrs against the equivalent
// map[string]int64: With keeps the keys sorted and unique in any insertion
// order, Get and Value read them, and the JSON encoding is encoding/json's
// rendering of the map byte for byte, which is what journals hold.
func TestAttrsMatchMapEncoding(t *testing.T) {
	m := map[string]int64{"zz": -1, "aa": 9, "m<id>&": 0, "frame": 1 << 40, "span": 3, "end": 7}
	keys := []string{"span", "zz", "aa", "end", "frame", "m<id>&", "aa", "span"}
	var a Attrs
	for _, k := range keys {
		a = a.With(k, m[k])
	}
	if len(a) != len(m) || !slices.IsSortedFunc(a, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) }) {
		t.Fatalf("With left %v, want %d sorted unique keys", a, len(m))
	}
	for k, v := range m {
		if got, ok := a.Get(k); !ok || got != v || a.Value(k) != v {
			t.Errorf("Get(%q) = %d, %v; want %d", k, got, ok, v)
		}
	}
	if _, ok := a.Get("absent"); ok || a.Value("absent") != 0 {
		t.Error("absent key reported present")
	}
	if a = a.With("aa", 10); a.Value("aa") != 10 || len(a) != len(m) {
		t.Errorf("With on a present key: %v", a)
	}
	m["aa"] = 10
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("Attrs encode as %s, the map as %s", got, want)
	}
	var back Attrs
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Errorf("decoded %v, want %v", back, a)
	}
}

// TestEventEncoderRememberedAppOrder drives the encoder's remembered
// application order with frame states naming different applications, some
// of equal count, interleaved so every lookup first meets a remembered
// order that does not fit: each encoding must still match encoding/json.
func TestEventEncoderRememberedAppOrder(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events,
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"b": {Spec: "s"}, "a": {}}}},
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"b": {}, "c": {PreOK: true}}}},
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"c": {}}}},
		)
	}
	var enc eventEncoder
	for i := range events {
		want, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.appendEvent(&events[i]); string(got) != string(want) {
			t.Errorf("event %d encoding diverges from stdlib:\n got  %s\n want %s", i, got, want)
		}
	}
}

// TestEventEncoderReusesBuffer checks that repeated encodes are
// allocation-free once the buffer has grown: Persist relies on it to stay
// off the frame-commit allocation budget.
func TestEventEncoderReusesBuffer(t *testing.T) {
	e := Event{
		Seq: 3, Frame: 9, Kind: KindHalt, App: "a1", Detail: "halt window open",
		Attrs: attrsOf(map[string]int64{"window": 4, "deadline": 12}),
	}
	var enc eventEncoder
	enc.appendEvent(&e) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() { enc.appendEvent(&e) })
	if allocs != 0 {
		t.Errorf("warmed appendEvent allocates %.1f objects/op, want 0", allocs)
	}
}

// persistSink captures the last record staged under each key.
type persistSink map[string][]byte

func (s persistSink) Put(key string, val []byte) { s[key] = append([]byte(nil), val...) }
func (s persistSink) Delete(key string)          { delete(s, key) }

// TestRegistryPersistMatchesStdlib pins Registry.Persist's hand-rolled
// snapshot encoding to json.Marshal of Registry.Snapshot, so
// RecoverSnapshot keeps decoding persisted metrics with encoding/json.
func TestRegistryPersistMatchesStdlib(t *testing.T) {
	cases := []struct {
		name string
		fill func(r *Registry)
	}{
		{"empty", func(r *Registry) {}},
		{"counters-only", func(r *Registry) {
			r.Counter("scram/triggers").Add(3)
			r.Counter("a/first").Inc()
		}},
		{"all-kinds", func(r *Registry) {
			r.Counter("scram/triggers").Add(41)
			r.Gauge("stable/p1/staged").Set(-7)
			r.Gauge("bus/backlog").Set(12)
			h := r.Histogram("scram/window_frames")
			h.Observe(3)
			h.Observe(144)
			r.Histogram("custom/bounds", 10, 20).Observe(15)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tc.fill(reg)
			want, err := json.Marshal(reg.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			sink := persistSink{}
			if err := reg.Persist(sink); err != nil {
				t.Fatal(err)
			}
			got := sink[metricsKey]
			if string(got) != string(want) {
				t.Errorf("Persist encoding diverges from stdlib:\n got  %s\n want %s", got, want)
			}
			back, ok, err := RecoverSnapshot(map[string][]byte(sink))
			if err != nil || !ok {
				t.Fatalf("RecoverSnapshot: ok=%v err=%v", ok, err)
			}
			if snap := reg.Snapshot(); len(back.Counters) != len(snap.Counters) ||
				len(back.Gauges) != len(snap.Gauges) || len(back.Histograms) != len(snap.Histograms) {
				t.Errorf("recovered snapshot shape differs: %+v vs %+v", back, snap)
			}
		})
	}
}

// TestEventKeyMatchesFmt pins the hand-rolled zero-padded hex key to the
// fmt formatting it replaced, including the recovery-critical property that
// lexicographic key order is sequence order.
func TestEventKeyMatchesFmt(t *testing.T) {
	seqs := []int64{0, 1, 15, 16, 255, 4096, 1<<32 + 7, 1<<62 + 3}
	var prev string
	for i, s := range seqs {
		want := fmt.Sprintf("%s%016x", eventKeyPrefix, s)
		got := eventKey(s)
		if got != want {
			t.Errorf("eventKey(%d) = %q, want %q", s, got, want)
		}
		if i > 0 && !(prev < got) {
			t.Errorf("key order broken: eventKey(%d)=%q not after %q", s, got, prev)
		}
		prev = got
	}
}
