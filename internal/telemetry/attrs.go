package telemetry

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
)

// Attr is one structured numeric attribute of an event.
type Attr struct {
	Key string
	Val int64
}

// Attrs is an event's structured numeric attributes, held sorted by key
// with each key at most once. It encodes as a JSON object whose keys come
// in sorted order — the bytes encoding/json writes for the equivalent
// map[string]int64 — and the ring-chunk encoder walks the entries as they
// lie (the chunk decoder rejects keys out of order).
//
// Build one with With, or as a literal whose keys are already in order.
// The Recorder copies the attributes of every event it keeps into storage
// of its own, so a producer builds them in a scratch slice it reuses.
type Attrs []Attr

// Get returns key's value and whether it is present.
func (a Attrs) Get(key string) (int64, bool) {
	for _, x := range a {
		if x.Key == key {
			return x.Val, true
		}
	}
	return 0, false
}

// Value returns key's value, 0 when absent.
func (a Attrs) Value(key string) int64 {
	v, _ := a.Get(key)
	return v
}

// With sets key to v in key order and returns the result. Like append, it
// writes in place when a has the capacity. Setting keys in ascending order
// costs one comparison each.
func (a Attrs) With(key string, v int64) Attrs {
	i := len(a)
	for ; i > 0 && a[i-1].Key >= key; i-- {
		if a[i-1].Key == key {
			a[i-1].Val = v
			return a
		}
	}
	//lint:allow allocfree amortized: producers build attributes in scratch they store back, so it grows to the largest event once
	a = append(a, Attr{})
	copy(a[i+1:], a[i:])
	a[i] = Attr{key, v}
	return a
}

// MarshalJSON encodes a as a JSON object in key order: encoding/json's
// rendering of the equivalent map. A key with no byte encoding/json escapes
// — every key the repository records — is copied between quotes as it is;
// any other goes through encoding/json.
func (a Attrs) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 2+24*len(a))
	buf = append(buf, '{')
	for i, x := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		if plainJSON(x.Key) {
			buf = append(append(append(buf, '"'), x.Key...), '"')
		} else {
			k, err := json.Marshal(x.Key)
			if err != nil {
				return nil, err
			}
			buf = append(buf, k...)
		}
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, x.Val, 10)
	}
	return append(buf, '}'), nil
}

// plainJSON reports whether s is printable ASCII that encoding/json writes
// unescaped: no quote, backslash or HTML-sensitive byte.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// UnmarshalJSON decodes a JSON object of integers, sorting its keys.
func (a *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{k, v})
	}
	slices.SortFunc(out, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	*a = out
	return nil
}
