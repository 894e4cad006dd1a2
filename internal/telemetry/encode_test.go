package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/spec"
	"repro/internal/trace"
)

// chunkOf encodes events as one sealed ring chunk, as Persist does.
func chunkOf(enc *eventEncoder, events []Event) []byte {
	b := []byte{tagChunk}
	for i := range events {
		b = enc.appendEvent(b, &events[i])
	}
	return codec.SealRecord(b, 0)
}

// TestChunkRoundTrip encodes every field of Event, FrameState and AppSnap
// into a ring chunk and decodes it back: the events must come back equal,
// and the decoded events must re-encode to exactly the chunk's bytes. If a
// field is added to Event, FrameState or AppSnap without teaching
// encode.go about it, the new field silently vanishes from persisted rings
// — this test is what catches that.
func TestChunkRoundTrip(t *testing.T) {
	events := []Event{
		// Minimal: every optional field empty.
		{Seq: 0, Frame: 0, Kind: KindSignal},
		// All scalar fields set, including bytes JSON would escape.
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
		// Attrs, in key order.
		{
			Seq:   7,
			Frame: 3,
			Kind:  KindComplete,
			Attrs: attrsOf(map[string]int64{"zz": -1, "aa": 9, "m<id>": 0, "frame": 1 << 40}),
		},
		// Frame state with no applications.
		{Seq: 8, Frame: 4, Kind: KindFrameState, State: &FrameState{Config: "c1", Env: "nominal"}},
		// Frame state with several apps, all AppSnap fields.
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
	chunk := chunkOf(&enc, events)
	back, err := decodeChunk(chunk, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Errorf("round trip:\n got  %+v\n want %+v", back, events)
	}
	if again := chunkOf(&enc, back); !bytes.Equal(again, chunk) {
		t.Errorf("decoded chunk re-encodes differently:\n in  %x\n out %x", chunk, again)
	}
}

// appsChunk builds a chunk of one frame-state event whose applications are
// written as given, bypassing the encoder's sort.
func appsChunk(status trace.ReconfStatus, ids ...string) []byte {
	b := []byte{tagChunk}
	b = codec.AppendVarint(b, 0) // seq
	b = codec.AppendVarint(b, 0) // frame
	for i := 0; i < 7; i++ {
		b = codec.AppendString(b, "") // kind and the six optional strings
	}
	b = codec.AppendCount(b, 0) // attrs
	b = codec.AppendFlag(b, true)
	b = codec.AppendString(b, "c1")
	b = codec.AppendString(b, "nominal")
	b = codec.AppendCount(b, len(ids))
	for _, id := range ids {
		b = codec.AppendString(b, id)
		b = codec.AppendVarint(b, int64(status))
		b = codec.AppendString(b, "s")
		b = codec.AppendFlag(b, false)
	}
	return codec.SealRecord(b, 0)
}

// badChunks are ring chunks the decoder must reject as corrupt, by name.
// testdata/fuzz/FuzzDecodeRingChunk holds each of them, under its name, as
// a seed of the fuzz target.
func badChunks() map[string][]byte {
	var enc eventEncoder
	valid := chunkOf(&enc, []Event{{Seq: 3, Frame: 2, Kind: KindHalt, App: "a1", Attrs: Attrs{{"deadline", 12}, {"window", 4}}}})
	flip := bytes.Clone(valid)
	flip[len(flip)/2] ^= 0x40
	body := valid[:len(valid)-codec.TrailerLen]
	retag := append([]byte{'K'}, body[1:]...)
	return map[string][]byte{
		"bad-crc":         flip,
		"truncated":       valid[:len(valid)-3],
		"bad-tag":         codec.SealRecord(retag, 0),
		"unsorted-attrs":  chunkOf(&enc, []Event{{Kind: KindHalt, Attrs: Attrs{{"window", 4}, {"deadline", 12}}}}),
		"duplicate-attrs": chunkOf(&enc, []Event{{Kind: KindHalt, Attrs: Attrs{{"window", 4}, {"window", 5}}}}),
		"unsorted-apps":   appsChunk(trace.StatusNormal, "b", "a"),
		"duplicate-apps":  appsChunk(trace.StatusNormal, "a", "a"),
		"unknown-status":  appsChunk(trace.StatusInitializing+1, "a"),
		"trailing-bytes":  codec.SealRecord(append(bytes.Clone(body), 0), 0),
	}
}

// TestChunkDecodeStrict checks that every malformed or non-canonical chunk
// fails RecoverRing with an error wrapping codec.ErrCorrupt, while a
// well-formed chunk built the way the application rejects are decodes.
func TestChunkDecodeStrict(t *testing.T) {
	if _, err := decodeChunk(appsChunk(trace.StatusNormal, "a", "b"), nil); err != nil {
		t.Fatalf("well-formed chunk rejected: %v", err)
	}
	for name, raw := range badChunks() {
		snap := map[string][]byte{eventKey(0): raw}
		if _, err := RecoverRing(snap); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
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
	m := map[string]int64{"zz": -1, "aa": 9, "m<id>&": 0, "frame": 1 << 40, "span": 3, "end": 7, "tab\tλ\u2028": 5}
	keys := []string{"span", "zz", "aa", "end", "frame", "m<id>&", "tab\tλ\u2028", "aa", "span"}
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
// order that does not fit: each encoding must match a fresh encoder's, and
// decode back to the same applications.
func TestEventEncoderRememberedAppOrder(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events,
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"b": {Status: trace.StatusNormal, Spec: "s"}, "a": {Status: trace.StatusHalted}}}},
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"b": {Status: trace.StatusNormal}, "c": {Status: trace.StatusNormal, PreOK: true}}}},
			Event{Seq: int64(i), Kind: KindFrameState, State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"c": {Status: trace.StatusPrepared}}}},
		)
	}
	var enc eventEncoder
	for i := range events {
		var fresh eventEncoder
		want := chunkOf(&fresh, events[i:i+1])
		got := chunkOf(&enc, events[i:i+1])
		if !bytes.Equal(got, want) {
			t.Errorf("event %d encoding diverges from a fresh encoder's:\n got  %x\n want %x", i, got, want)
		}
		back, err := decodeChunk(got, nil)
		if err != nil || !reflect.DeepEqual(back[0].State.Apps, events[i].State.Apps) {
			t.Errorf("event %d decodes to %+v, %v", i, back, err)
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
		State: &FrameState{Config: "c", Apps: map[spec.AppID]AppSnap{"a": {}, "b": {}}},
	}
	var enc eventEncoder
	enc.buf = enc.appendEvent(enc.buf[:0], &e) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() { enc.buf = enc.appendEvent(enc.buf[:0], &e) })
	if allocs != 0 {
		t.Errorf("warmed appendEvent allocates %.1f objects/op, want 0", allocs)
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
