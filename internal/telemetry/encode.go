package telemetry

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/codec"
	"repro/internal/spec"
	"repro/internal/trace"
)

// A ring chunk — the events one or more consecutive Persist calls staged
// under one telemetry/ev/<seq> key — is one frame-path record (package
// codec): the chunk tag, each event's fields in a fixed order, and the
// CRC32C trailer. An event is its sequence number and frame, its kind and
// the six optional strings (empty when absent), its attributes in key
// order, and an optional frame-state sample whose applications come in ID
// order; no attributes and no applications both decode as nil. The chunk
// carries no event count: its events run to the trailer, so the open chunk
// grows by cutting the trailer, appending the frame's events and sealing
// again.
//
// Decoding is strict, as for every frame-path record: attribute keys and
// application IDs must ascend strictly and statuses must be known, so a
// chunk that decodes re-encodes to exactly its input.

// tagChunk is the record tag of a ring chunk.
const tagChunk byte = 'E'

// The smallest encodings of a repeated element, for RecordReader.Count: an
// attribute is a key length and a one-byte varint; an application is an
// ID length, a status, a specification length and a flag.
const (
	attrMinSize = 2
	appMinSize  = 4
)

// The ways a ring chunk's fields can be well formed yet not canonical. Each
// wraps codec.ErrCorrupt.
var (
	errAttrOrder = fmt.Errorf("%w: event attributes not in ascending key order", codec.ErrCorrupt)
	errAppOrder  = fmt.Errorf("%w: frame-state applications not in ascending ID order", codec.ErrCorrupt)
	errStatus    = fmt.Errorf("%w: unknown reconfiguration status", codec.ErrCorrupt)
)

// eventEncoder holds the reused buffers of the persistence path's encoder.
// It is owned by the Recorder.
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

// appendEvent appends e's fields to dst (which may alias enc.buf — Persist
// builds chunk records that way) and returns the extended slice.
func (enc *eventEncoder) appendEvent(dst []byte, e *Event) []byte {
	dst = codec.AppendVarint(dst, e.Seq)
	dst = codec.AppendVarint(dst, e.Frame)
	for _, s := range [...]string{string(e.Kind), e.App, e.Host, e.Config, e.From, e.Phase, e.Detail} {
		dst = codec.AppendString(dst, s)
	}
	dst = codec.AppendCount(dst, len(e.Attrs))
	for _, a := range e.Attrs {
		dst = codec.AppendString(dst, a.Key)
		dst = codec.AppendVarint(dst, a.Val)
	}
	fs := e.State
	dst = codec.AppendFlag(dst, fs != nil)
	if fs == nil {
		return dst
	}
	dst = codec.AppendString(dst, string(fs.Config))
	dst = codec.AppendString(dst, string(fs.Env))
	dst = codec.AppendCount(dst, len(fs.Apps))
	for _, kv := range enc.sortedApps(fs.Apps) {
		dst = codec.AppendString(dst, string(kv.id))
		dst = codec.AppendVarint(dst, int64(kv.snap.Status))
		dst = codec.AppendString(dst, string(kv.snap.Spec))
		dst = codec.AppendFlag(dst, kv.snap.PreOK)
	}
	return dst
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

// decodeChunk appends the events of one ring chunk to events. Every failure
// wraps codec.ErrCorrupt.
func decodeChunk(raw []byte, events []Event) ([]Event, error) {
	r := codec.OpenRecord(raw, tagChunk)
	for r.More() {
		e := Event{Seq: r.Varint(), Frame: r.Varint(), Kind: Kind(r.Bytes())}
		for _, s := range [...]*string{&e.App, &e.Host, &e.Config, &e.From, &e.Phase, &e.Detail} {
			*s = string(r.Bytes())
		}
		if n := r.Count(attrMinSize); n > 0 {
			e.Attrs = make(Attrs, n)
			for i := range e.Attrs {
				e.Attrs[i] = Attr{string(r.Bytes()), r.Varint()}
				if i > 0 && r.Err() == nil && e.Attrs[i].Key <= e.Attrs[i-1].Key {
					return events, errAttrOrder
				}
			}
		}
		if r.Flag() {
			fs := &FrameState{Config: spec.ConfigID(r.Bytes()), Env: spec.EnvState(r.Bytes())}
			if n := r.Count(appMinSize); n > 0 {
				fs.Apps = make(map[spec.AppID]AppSnap, n)
				prev := ""
				for i := 0; i < n; i++ {
					id := string(r.Bytes())
					a := AppSnap{Status: trace.ReconfStatus(r.Varint()), Spec: spec.SpecID(r.Bytes()), PreOK: r.Flag()}
					if r.Err() != nil {
						break
					}
					if i > 0 && id <= prev {
						return events, errAppOrder
					}
					if a.Status < trace.StatusNormal || a.Status > trace.StatusInitializing {
						return events, errStatus
					}
					fs.Apps[spec.AppID(id)] = a
					prev = id
				}
			}
			e.State = fs
		}
		events = append(events, e)
	}
	return events, r.Close()
}
