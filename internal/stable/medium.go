package stable

import "sort"

// Medium is one raw storage device under the hardened store: the unreliable
// physical component from which dependable stable storage is constructed.
// A Medium stores opaque record bytes; it knows nothing about checksums or
// commits. Implementations need not be concurrency-safe: a medium belongs to
// one ReplicatedStore, and that store to one goroutine at a time.
type Medium interface {
	// Read returns the raw bytes stored under key as a read-only view,
	// valid until the next call on this medium. The caller must not modify
	// it, and must copy whatever it keeps past its next call on the medium.
	// A medium may return its stored bytes directly, so verifying a record
	// in place costs no copy.
	Read(key string) ([]byte, bool)
	// Write stores raw bytes under key. It must not retain raw: the caller
	// may reuse the buffer as soon as Write returns. A non-nil error models
	// a device write fault: the write did not happen, and the store must
	// assume nothing about subsequent writes until the frame ends.
	Write(key string, raw []byte) error
	// Delete removes key, if present.
	Delete(key string)
	// Keys returns every stored key, sorted.
	Keys() []string
	// EndFrame advances the medium's fault clock at the frame boundary:
	// transient fault state (a torn-write outage) clears, and wear faults
	// (bit rot) for the next frame are applied.
	EndFrame()
}

// MemMedium is a perfect in-memory Medium.
type MemMedium struct {
	data map[string][]byte
}

// NewMemMedium returns an empty perfect medium.
func NewMemMedium() *MemMedium {
	return &MemMedium{data: make(map[string][]byte)}
}

// Read implements Medium, returning the stored slice itself. Write always
// installs a fresh copy rather than overwriting in place, so a view stays
// intact even after its key is rewritten.
func (m *MemMedium) Read(key string) ([]byte, bool) {
	raw, ok := m.data[key]
	return raw, ok
}

// Write implements Medium; a perfect medium never fails a write.
func (m *MemMedium) Write(key string, raw []byte) error {
	cp := make([]byte, len(raw))
	copy(cp, raw)
	m.data[key] = cp
	return nil
}

// Delete implements Medium.
func (m *MemMedium) Delete(key string) { delete(m.data, key) }

// Keys implements Medium.
func (m *MemMedium) Keys() []string {
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EndFrame implements Medium; a perfect medium has no fault clock.
func (m *MemMedium) EndFrame() {}
