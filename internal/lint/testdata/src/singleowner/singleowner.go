// Fixture for the nofreegoroutine lock rule. The package is named stable so
// the single-owner gate admits it; it never builds as part of the module
// (testdata is invisible to go list).
package stable

import (
	"sync"
	"sync/atomic"
)

// Store mirrors a single-owner component that grew a lock back: the system
// that owns it already serializes every call.
type Store struct {
	mu   sync.Mutex // want `sync.Mutex value in single-owner package .stable.`
	data map[string][]byte

	//lint:allow nofreegoroutine audited: read by a wall-clock plane outside the owning system
	reads atomic.Int64
}

// Get is the owner-serialized access path: no lock needed.
func (s *Store) Get(key string) []byte {
	s.reads.Add(1)
	return s.data[key]
}
