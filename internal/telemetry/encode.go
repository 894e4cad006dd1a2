package telemetry

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// This file hand-rolls the JSON encoding of Event (and its FrameState
// payload) for the persistence path. Recorder.Persist runs on the
// frame-commit hot path: under reconfiguration churn it encodes several
// events per frame, and encoding/json's reflection walk allocates per field
// and per map entry. The hand encoder appends into a reused buffer instead —
// zero allocations per event once the buffer has grown — while producing
// exactly the bytes encoding/json would (struct field order, omitempty,
// sorted map keys, HTML-escaped strings), so readers keep using
// json.Unmarshal and journals stay byte-identical with re-encoded ones.
//
// The encoder must stay in lockstep with the Event / FrameState / AppSnap
// struct definitions; TestEventEncoderMatchesStdlib enforces that field by
// field.

// eventEncoder holds the reused buffers of one encoding stream. It is owned
// by the Recorder.
type eventEncoder struct {
	buf  []byte
	apps []appKV // scratch for sorted FrameState apps
	// appIDs remembers the last sorted application ID set. A system's
	// FrameState always names all of its specification's applications, so
	// a map whose size matches it and which holds every ID of it has
	// exactly that ID set: the encoder looks those IDs up in order instead
	// of iterating the map and sorting.
	appIDs []spec.AppID
}

// appKV is one FrameState.Apps entry, collected for sorting.
type appKV struct {
	id   spec.AppID
	snap AppSnap
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping exactly the
// characters encoding/json escapes (including the HTML-sensitive ones, for
// byte-compatibility with stdlib-encoded journals).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	// Copy maximal spans of bytes needing no escape in one append; almost
	// every string here (identifiers, config names) is one clean span.
	// Bytes ≥ 0x80 — UTF-8 continuations — pass through verbatim, as in
	// encoding/json (the inputs are our own identifiers and fmt-built
	// details, always valid UTF-8).
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"', '\\':
			buf = append(buf, '\\', c)
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendStringField appends `,"name":"value"` for a non-empty string field
// with omitempty semantics, given the field's `,"name":` prefix (the leading
// comma is always safe: seq is emitted first unconditionally).
func appendStringField(buf []byte, prefix, val string) []byte {
	if val == "" {
		return buf
	}
	buf = append(buf, prefix...)
	return appendJSONString(buf, val)
}

// appendEvent encodes e into the encoder's own buffer and returns the
// encoded record, which aliases that buffer and is valid until the next
// call.
func (enc *eventEncoder) appendEvent(e *Event) []byte {
	enc.buf = enc.appendEventTo(enc.buf[:0], e)
	return enc.buf
}

// appendEventTo appends e's JSON encoding to buf (which may alias enc.buf —
// Persist builds chunk records that way) and returns the extended slice.
func (enc *eventEncoder) appendEventTo(buf []byte, e *Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, e.Seq, 10)
	buf = append(buf, `,"frame":`...)
	buf = strconv.AppendInt(buf, e.Frame, 10)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, string(e.Kind))
	buf = appendStringField(buf, `,"app":`, e.App)
	buf = appendStringField(buf, `,"host":`, e.Host)
	buf = appendStringField(buf, `,"config":`, e.Config)
	buf = appendStringField(buf, `,"from":`, e.From)
	buf = appendStringField(buf, `,"phase":`, e.Phase)
	buf = appendStringField(buf, `,"detail":`, e.Detail)
	if len(e.Attrs) > 0 {
		buf = append(buf, `,"attrs":`...)
		buf = appendAttrs(buf, e.Attrs)
	}
	if e.State != nil {
		buf = append(buf, `,"state":`...)
		buf = enc.appendFrameState(buf, e.State)
	}
	return append(buf, '}')
}

// sortedApps returns fs.Apps's entries sorted by application ID, in the
// encoder's scratch: in the remembered ID order when fs names exactly those
// applications, else by collecting and sorting them.
func (enc *eventEncoder) sortedApps(apps map[spec.AppID]AppSnap) []appKV {
	as := enc.apps[:0]
	if len(enc.appIDs) == len(apps) {
		for _, id := range enc.appIDs {
			a, ok := apps[id]
			if !ok {
				break
			}
			//lint:allow allocfree amortized: grows to the largest application set once, then every later sample reuses the scratch
			as = append(as, appKV{id, a})
		}
		if len(as) == len(apps) {
			enc.apps = as
			return as
		}
	}
	as = as[:0]
	for id, a := range apps {
		//lint:allow allocfree amortized: grows to the largest application set once, then every later sample reuses the scratch
		as = append(as, appKV{id, a})
	}
	slices.SortFunc(as, func(a, b appKV) int { return strings.Compare(string(a.id), string(b.id)) })
	enc.apps = as
	enc.appIDs = enc.appIDs[:0]
	for _, kv := range as {
		//lint:allow allocfree amortized: grows to the largest application set once, then only refills
		enc.appIDs = append(enc.appIDs, kv.id)
	}
	return as
}

// appendFrameState appends a FrameState object.
func (enc *eventEncoder) appendFrameState(buf []byte, fs *FrameState) []byte {
	buf = append(buf, `{"config":`...)
	buf = appendJSONString(buf, string(fs.Config))
	buf = append(buf, `,"env":`...)
	buf = appendJSONString(buf, string(fs.Env))
	buf = append(buf, `,"apps":`...)
	if fs.Apps == nil {
		buf = append(buf, "null}"...)
		return buf
	}
	buf = append(buf, '{')
	for i, kv := range enc.sortedApps(fs.Apps) {
		if i > 0 {
			buf = append(buf, ',')
		}
		a := kv.snap
		buf = appendJSONString(buf, string(kv.id))
		buf = append(buf, `:{"status":`...)
		buf = appendJSONString(buf, a.Status.String())
		buf = append(buf, `,"spec":`...)
		buf = appendJSONString(buf, string(a.Spec))
		buf = append(buf, `,"pre_ok":`...)
		buf = strconv.AppendBool(buf, a.PreOK)
		buf = append(buf, '}')
	}
	return append(buf, "}}"...)
}
