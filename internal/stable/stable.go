// Package stable implements the stable storage of a fail-stop processor.
//
// In the fail-stop model of Schlichting and Schneider, a processor that
// fails halts at the end of the last instruction it completed; the contents
// of volatile storage are lost but the contents of stable storage are
// preserved and can be polled by the surviving processors. The
// reconfiguration architecture of Strunk, Knight and Aiello additionally
// requires frame-atomic commits: each application commits its results to
// stable storage at the end of each real-time frame (section 6.1), and
// reads performed at the start of a frame observe only values committed in
// earlier frames.
//
// A Store therefore exposes a read-committed, staged-write interface: Put
// and Delete stage changes that become visible only after Commit, which the
// frame scheduler invokes at the end of each frame. A processor failure
// discards the staged writes (they were volatile) but never the committed
// state.
//
// The paper assumes stable storage is ultra-dependable; Schlichting and
// Schneider's original fail-stop construction instead derives it from
// unreliable parts. This package provides both: NewStore returns the
// assumed-perfect in-memory store, while NewHardened mounts the same
// staged-commit interface on a ReplicatedStore — N checksummed replicas
// with read repair and an end-of-frame scrub pass over injectable Media —
// so that sub-fail-stop storage faults (torn writes, bit rot, stuck reads)
// are either repaired transparently or converted into a fail-stop halt via
// the store's fault sink, never into silently wrong data.
package stable

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Store is a frame-atomic, crash-survivable key-value store. The zero value
// is not usable; call NewStore.
//
// A Store is not safe for concurrent use. It belongs to the system that
// owns its processor, and that system belongs to one goroutine at a time;
// the applications a processor hosts stage and read one after another in
// the frame's ordered pass. A store shared across goroutines (a fleet's
// manifest) is serialized by its owner.
type Store struct {
	committed map[string][]byte // plain in-memory backend; nil when hardened
	// buckets indexes committed keys by their top-level path segment
	// ("app/", "telemetry/", ...), so prefix scans — notably region
	// snapshots during application migration — touch only the keys of one
	// subsystem instead of everything resident on the store. Nil when
	// hardened.
	buckets map[string]map[string]bool
	rep     *ReplicatedStore // hardened backend; nil when plain
	staged  map[string]stagedVal
	// spare is the previous frame's staged map, cleared and parked after a
	// hardened commit so the next frame swaps it back in instead of
	// allocating a fresh map every frame.
	spare   map[string]stagedVal
	version uint64
	onFault func(error) // invoked on unrecoverable faults
	// pools holds store-owned value buffers retired by commits, staged
	// overwrites and discards, bucketed by power-of-two size class so Put
	// finds a fitting buffer in O(1). Keys rewritten every frame — notably
	// the flight recorder's journal chunks and the kernel's protocol state
	// — cycle through the pool instead of allocating a fresh copy per
	// write. Each class is bounded by stagePoolClassMax.
	pools [poolClasses][][]byte
}

// Pool size classes: 64 B (class 0) through 64 KiB, doubling per class. A
// buffer is filed under the class of its capacity rounded down, so every
// buffer in class c has cap >= 64<<c; a request of n bytes pops from the
// class where that floor guarantees a fit. Values past the top class
// allocate exactly — doubling them would waste real memory.
const (
	poolClassMinBits = 6 // 64 B
	poolClasses      = 11
)

// stagePoolClassMax bounds each size class of the retired-buffer pool
// separately. A single global bound lets the most numerous keys crowd out
// the rest: a store's dozens of tiny per-frame counters would fill it with
// 64-byte buffers and force the journal-chunk classes to allocate fresh on
// every write. Per-frame rewrites of any one size are few, so a small
// per-class bound captures each cycle; the worst-case pool footprint
// (every class full) is ~1 MB and reached only by a store that actually
// uses every size class.
const stagePoolClassMax = 8

// roundCap rounds a requested buffer size up to its size class, so a miss
// allocates a buffer that later retires into exactly the class serving
// requests of this size — a journal chunk that grew by one event still
// reuses its predecessor's buffer.
func roundCap(n int) int {
	const maxRound = 64 << (poolClasses - 1)
	if n >= maxRound {
		return n
	}
	c := 1 << poolClassMinBits
	for c < n {
		c <<= 1
	}
	return c
}

// classUp returns the smallest class whose every buffer fits n bytes, or -1
// when n exceeds the top class.
func classUp(n int) int {
	for c := 0; c < poolClasses; c++ {
		if 64<<c >= n {
			return c
		}
	}
	return -1
}

// classDown returns the class a buffer of the given capacity files under:
// the class of its capacity rounded down, clamped to the top class (a
// larger buffer still satisfies every top-class request). -1 for buffers
// too small to pool.
func classDown(capacity int) int {
	c := -1
	for capacity >= 64 && c < poolClasses-1 {
		capacity >>= 1
		c++
	}
	return c
}

// takeBuf returns a retired buffer with capacity >= n (length 0), or nil
// when none fits. It pops from the request's own size class, then one class
// up — never further, so a small counter write cannot strand a
// journal-chunk buffer on a tiny committed key.
func (s *Store) takeBuf(n int) []byte {
	cls := classUp(n)
	if cls < 0 {
		return nil
	}
	for c := cls; c < poolClasses && c <= cls+1; c++ {
		if l := len(s.pools[c]); l > 0 {
			b := s.pools[c][l-1]
			s.pools[c][l-1] = nil
			s.pools[c] = s.pools[c][:l-1]
			return b[:0]
		}
	}
	return nil
}

// recycle parks a store-owned buffer for reuse by a later Put. Only buffers
// the store allocated and exclusively owns may be recycled: staged values
// displaced before commit, committed values displaced by an overwrite or
// deletion, and hardened-commit batches the backend has already copied.
func (s *Store) recycle(b []byte) {
	cls := classDown(cap(b))
	if cls < 0 || len(s.pools[cls]) >= stagePoolClassMax {
		return
	}
	//lint:allow allocfree bounded: a class grows to stagePoolClassMax entries once, after which its length only cycles within the retained backing array
	s.pools[cls] = append(s.pools[cls], b)
}

// stage installs a staged operation, retiring the buffer of any write
// it displaces within the frame.
func (s *Store) stage(key string, sv stagedVal) {
	if old, ok := s.staged[key]; ok {
		s.recycle(old.val)
	}
	s.staged[key] = sv
}

// bucketOf returns the bucket-index key for a store key: the path up to and
// including the first '/', or "" for keys without one.
func bucketOf(key string) string {
	if i := strings.IndexByte(key, '/'); i >= 0 {
		return key[:i+1]
	}
	return ""
}

// stagedVal is a staged write: a pending value or a tombstone.
type stagedVal struct {
	val     []byte
	deleted bool
}

// NewStore returns an empty store at version 0 over the assumed-perfect
// in-memory backend.
func NewStore() *Store {
	return &Store{
		committed: make(map[string][]byte),
		buckets:   make(map[string]map[string]bool),
		staged:    make(map[string]stagedVal),
	}
}

// NewHardened returns a store whose committed state lives on the given
// replicated, checksummed backend instead of a perfect in-memory map. Use
// SetFaultSink to receive unrecoverable-fault notifications; without a sink,
// unrecoverable corruption silently reads as absence, which weakens the
// fail-stop guarantee.
//
// The store adopts the backend's committed version, so a backend remounted
// from durable media (MountReplicatedStore) continues its version sequence
// instead of re-issuing version 1 against history the media already hold.
// Fresh backends report version 0, preserving the original behavior.
func NewHardened(rep *ReplicatedStore) *Store {
	return &Store{
		rep:     rep,
		version: rep.Version(),
		staged:  make(map[string]stagedVal),
	}
}

// Hardened returns the replicated backend, or nil for a plain store. It is
// how campaign instrumentation reaches the fault-handling counters.
func (s *Store) Hardened() *ReplicatedStore {
	return s.rep
}

// SetFaultSink installs the unrecoverable-fault handler. The sink is called
// after the failing operation's own bookkeeping, so it may call back into
// the store (the fail-stop processor's halt path does: halting discards
// staged writes). It must not call Commit: a sink fired by a failed commit
// runs before that commit returns.
func (s *Store) SetFaultSink(fn func(error)) {
	s.onFault = fn
}

// fault dispatches an unrecoverable fault to the sink.
func (s *Store) fault(err error) {
	if err != nil && s.onFault != nil {
		s.onFault(err)
	}
}

// Get returns the committed value for key. Staged (uncommitted) writes are
// never visible, matching the read-committed semantics of frame-boundary
// stable-storage access. The returned slice is a copy. On a hardened store,
// corruption that defeats all replicas reports through the fault sink and
// reads as absent — never as wrong data.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.rep != nil {
		v, ok, err := s.rep.Get(key)
		if err != nil {
			s.fault(err)
			return nil, false
		}
		return v, ok
	}
	v, ok := s.committed[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put stages a write of val to key. The write becomes visible after the next
// Commit. The input slice is copied — into a pooled buffer retired by an
// earlier commit when one fits, so steady per-frame rewrites recycle their
// storage instead of allocating.
func (s *Store) Put(key string, val []byte) {
	cp := s.takeBuf(len(val))
	if cp == nil {
		cp = make([]byte, len(val), roundCap(len(val)))
		copy(cp, val)
	} else {
		//lint:allow allocfree pooled reuse: takeBuf returned cap >= len(val), so this append fills the retired buffer and never grows
		cp = append(cp, val...)
	}
	s.stage(key, stagedVal{val: cp})
}

// putOwned stages a write taking ownership of val: the caller must not
// retain or mutate the slice afterwards. The typed helpers (PutInt64,
// PutJSON) stage freshly built buffers through it so each write costs one
// allocation, not two.
func (s *Store) putOwned(key string, val []byte) {
	s.stage(key, stagedVal{val: val})
}

// GetInto appends the committed value for key to buf[:0] and returns the
// extended slice, avoiding Get's per-read allocation when the caller holds a
// reusable buffer. On a hardened store the value is copied straight from the
// winning replica, with the same verification, repair, oracle check and
// fault reporting as Get. On a miss the returned slice is buf[:0].
func (s *Store) GetInto(buf []byte, key string) ([]byte, bool) {
	buf = buf[:0]
	if s.rep == nil {
		v, ok := s.committed[key]
		if ok {
			buf = append(buf, v...)
		}
		return buf, ok
	}
	buf, ok, err := s.rep.getInto(buf, key)
	if err != nil {
		s.fault(err)
	}
	return buf, ok
}

// Delete stages removal of key, effective at the next Commit.
func (s *Store) Delete(key string) {
	s.stage(key, stagedVal{deleted: true})
}

// Commit atomically applies all staged writes and returns the new version.
// Commit with nothing staged still advances the version: every frame ends
// with a commit, and the version doubles as a frame-aligned logical clock.
// On a hardened store a commit absorbed by no caught-up replica reports
// through the fault sink and does not advance the version — the owning
// processor is expected to halt.
func (s *Store) Commit() uint64 {
	if s.rep != nil {
		next := s.version + 1
		batch := s.staged
		if s.spare != nil {
			s.staged, s.spare = s.spare, nil
		} else {
			s.staged = make(map[string]stagedVal)
		}
		err := s.rep.Commit(next, batch)
		// The backend copied everything it keeps: retire the batch's
		// buffers for reuse and park the cleared map for the next frame's
		// staging (also on failure — the batch is dropped either way).
		for _, sv := range batch {
			s.recycle(sv.val)
		}
		clear(batch)
		if err != nil {
			s.fault(err)
			if s.spare == nil {
				s.spare = batch
			}
			return s.Version()
		}
		s.version = next
		if s.spare == nil {
			s.spare = batch
		}
		return next
	}
	for k, sv := range s.staged {
		if sv.deleted {
			if old, ok := s.committed[k]; ok {
				s.recycle(old)
				delete(s.committed, k)
				bk := bucketOf(k)
				if b := s.buckets[bk]; b != nil {
					delete(b, k)
					if len(b) == 0 {
						delete(s.buckets, bk)
					}
				}
			}
		} else {
			if old, ok := s.committed[k]; ok {
				// The staged write displaces the committed buffer; retire
				// it so next frame's rewrite of the same key reuses it.
				s.recycle(old)
			} else {
				bk := bucketOf(k)
				b := s.buckets[bk]
				if b == nil {
					b = make(map[string]bool)
					s.buckets[bk] = b
				}
				b[k] = true
			}
			s.committed[k] = sv.val
		}
	}
	clear(s.staged)
	s.version++
	return s.version
}

// Scrub runs the hardened backend's end-of-frame integrity pass, skipping
// keys with a staged deletion (per Dirty, repairing a record the next commit
// tombstones is wasted work). The backend consults the staged deletions
// directly as it reaches each key. It is a no-op on a plain store.
// Unrecoverable corruption reports through the fault sink and is also
// returned.
func (s *Store) Scrub() (ScrubReport, error) {
	if s.rep == nil {
		return ScrubReport{}, nil
	}
	rep, err := s.rep.Scrub(s.stagedDeletion)
	if err != nil {
		s.fault(err)
	}
	return rep, err
}

// stagedDeletion reports whether key has a staged deletion: the scrub
// pass's skip predicate.
func (s *Store) stagedDeletion(key string) bool {
	_, deleted := s.Dirty(key)
	return deleted
}

// Discard drops all staged writes without committing them. The frame
// runtime calls Discard when the hosting processor fails mid-frame: the
// staged writes were volatile and are lost, while committed state survives.
func (s *Store) Discard() {
	for _, sv := range s.staged {
		s.recycle(sv.val)
	}
	clear(s.staged)
}

// Version returns the number of commits performed.
func (s *Store) Version() uint64 {
	return s.version
}

// PendingWrites returns the number of staged, uncommitted writes.
func (s *Store) PendingWrites() int {
	return len(s.staged)
}

// Snapshot returns a deep copy of the committed state. Surviving processors
// use Snapshot to poll the stable storage of a failed processor (section 5.1
// of the paper) and to migrate application state between processors during
// reconfiguration.
func (s *Store) Snapshot() map[string][]byte {
	if s.rep != nil {
		snap, err := s.rep.Snapshot()
		s.fault(err)
		return snap
	}
	out := make(map[string][]byte, len(s.committed))
	for k, v := range s.committed {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out
}

// SnapshotPrefix returns a deep copy of the committed entries whose keys
// carry the given prefix. Migration of a single region uses it so the cost
// scales with the region, not with everything else resident on the store
// (notably the flight-recorder journal on the SCRAM host).
func (s *Store) SnapshotPrefix(prefix string) map[string][]byte {
	if s.rep != nil {
		snap, err := s.rep.SnapshotPrefix(prefix)
		s.fault(err)
		return snap
	}
	var out map[string][]byte
	copyKey := func(k string) {
		if !strings.HasPrefix(k, prefix) {
			return
		}
		v := s.committed[k]
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		// The prefix pins a top-level segment: only that bucket can match.
		bucket := s.buckets[prefix[:i+1]]
		out = make(map[string][]byte, len(bucket))
		for k := range bucket {
			copyKey(k)
		}
		return out
	}
	out = make(map[string][]byte, len(s.committed))
	for k := range s.committed {
		copyKey(k)
	}
	return out
}

// Restore stages every entry of snap (it still requires a Commit to become
// visible, preserving frame atomicity during migration).
func (s *Store) Restore(snap map[string][]byte) {
	for k, v := range snap {
		s.Put(k, v)
	}
}

// Keys returns the committed keys having the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	if s.rep != nil {
		keys, err := s.rep.KeysWithPrefix(prefix)
		s.fault(err)
		return keys
	}
	var keys []string
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		bucket := s.buckets[prefix[:i+1]]
		keys = make([]string, 0, len(bucket))
		for k := range bucket {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
	} else {
		keys = make([]string, 0, len(s.committed))
		for k := range s.committed {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// StagedLen returns the number of staged, uncommitted operations, counting
// deletions as well as writes — the committed view cannot distinguish "key
// absent" from "key deleted this frame", but diagnostics (commit-hook
// logging, the scrub pass) can via StagedLen and Dirty.
func (s *Store) StagedLen() int {
	return len(s.staged)
}

// Dirty reports whether key has a staged, uncommitted operation this frame
// and whether that operation is a deletion.
func (s *Store) Dirty(key string) (staged, deleted bool) {
	sv, ok := s.staged[key]
	return ok, ok && sv.deleted
}

// PutString stages a string value.
func (s *Store) PutString(key, val string) { s.Put(key, []byte(val)) }

// GetString returns the committed value for key as a string.
func (s *Store) GetString(key string) (string, bool) {
	v, ok := s.Get(key)
	if !ok {
		return "", false
	}
	return string(v), true
}

// PutInt64 stages an integer value in decimal form.
func (s *Store) PutInt64(key string, val int64) {
	s.putOwned(key, strconv.AppendInt(nil, val, 10))
}

// parseDecimal parses a decimal int64 from raw bytes without converting to a
// string, so the per-frame counter reads on the kernel path stay
// allocation-free.
func parseDecimal(v []byte) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if v[0] == '-' || v[0] == '+' {
		neg = v[0] == '-'
		i = 1
		if len(v) == 1 {
			return 0, false
		}
	}
	var n int64
	for ; i < len(v); i++ {
		d := v[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		prev := n
		n = n*10 + int64(d-'0')
		if n < prev {
			return 0, false // overflow
		}
	}
	if neg {
		n = -n
	}
	return n, true
}

// GetInt64 returns the committed value for key parsed as a decimal integer.
// It returns an error if the key is absent or malformed.
func (s *Store) GetInt64(key string) (int64, error) {
	if s.rep == nil {
		v, ok := s.committed[key]
		if !ok {
			return 0, fmt.Errorf("stable: key %q not present", key)
		}
		n, ok := parseDecimal(v)
		if !ok {
			return 0, fmt.Errorf("stable: key %q: malformed integer %q", key, v)
		}
		return n, nil
	}
	v, ok := s.Get(key)
	if !ok {
		return 0, fmt.Errorf("stable: key %q not present", key)
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stable: key %q: %w", key, err)
	}
	return n, nil
}

// PutJSON stages the JSON encoding of val.
func (s *Store) PutJSON(key string, val any) error {
	data, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("stable: encoding %q: %w", key, err)
	}
	s.putOwned(key, data)
	return nil
}

// GetJSON decodes the committed value for key into out. It returns false
// with a nil error if the key is absent.
func (s *Store) GetJSON(key string, out any) (bool, error) {
	v, ok := s.Get(key)
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(v, out); err != nil {
		return false, fmt.Errorf("stable: decoding %q: %w", key, err)
	}
	return true, nil
}

// Region returns a view of the store in which every key is transparently
// prefixed. Regions give each application a private namespace within its
// processor's stable storage while sharing the same frame-atomic commit.
func (s *Store) Region(prefix string) *Region {
	return &Region{store: s, prefix: prefix + "/"}
}

// Region is a prefixed view of a Store. All operations address keys within
// the region's namespace; Commit and Discard remain whole-store operations
// performed by the frame runtime, not by region holders.
type Region struct {
	store  *Store
	prefix string

	// keys is a bounded cache of prefixed key strings. The keys an
	// application touches every frame form a small fixed set; caching the
	// concatenation removes a per-access string allocation from the frame
	// loop. Callers with unbounded key spaces (journal sequence keys) fall
	// back to plain concatenation once the cache is full.
	keys map[string]string
}

// regionKeyCacheMax bounds the per-region key cache.
const regionKeyCacheMax = 64

// key returns prefix+k, cached for the small per-frame working set.
func (r *Region) key(k string) string {
	full, ok := r.keys[k]
	if !ok {
		full = r.prefix + k
		if r.keys == nil {
			r.keys = make(map[string]string, 8)
		}
		if len(r.keys) < regionKeyCacheMax {
			r.keys[k] = full
		}
	}
	return full
}

// Get returns the committed value for key within the region.
func (r *Region) Get(key string) ([]byte, bool) { return r.store.Get(r.key(key)) }

// GetInto appends the committed value for key within the region to buf[:0].
func (r *Region) GetInto(buf []byte, key string) ([]byte, bool) {
	return r.store.GetInto(buf, r.key(key))
}

// Put stages a write within the region.
func (r *Region) Put(key string, val []byte) { r.store.Put(r.key(key), val) }

// Delete stages a removal within the region.
func (r *Region) Delete(key string) { r.store.Delete(r.key(key)) }

// PutString stages a string value within the region.
func (r *Region) PutString(key, val string) { r.store.PutString(r.key(key), val) }

// GetString returns the committed string value for key within the region.
func (r *Region) GetString(key string) (string, bool) { return r.store.GetString(r.key(key)) }

// PutInt64 stages an integer value within the region.
func (r *Region) PutInt64(key string, val int64) { r.store.PutInt64(r.key(key), val) }

// GetInt64 returns the committed integer value for key within the region.
func (r *Region) GetInt64(key string) (int64, error) { return r.store.GetInt64(r.key(key)) }

// PutJSON stages the JSON encoding of val within the region.
func (r *Region) PutJSON(key string, val any) error { return r.store.PutJSON(r.key(key), val) }

// GetJSON decodes the committed value for key within the region into out.
func (r *Region) GetJSON(key string, out any) (bool, error) {
	return r.store.GetJSON(r.key(key), out)
}

// Snapshot returns a deep copy of the committed entries in the region, with
// the region prefix stripped.
func (r *Region) Snapshot() map[string][]byte {
	scoped := r.store.SnapshotPrefix(r.prefix)
	out := make(map[string][]byte, len(scoped))
	for k, v := range scoped {
		out[strings.TrimPrefix(k, r.prefix)] = v
	}
	return out
}

// Restore stages every entry of snap into the region.
func (r *Region) Restore(snap map[string][]byte) {
	for k, v := range snap {
		r.Put(k, v)
	}
}

// Keys returns the committed keys in the region (prefix stripped), sorted.
func (r *Region) Keys() []string {
	keys := r.store.Keys(r.prefix)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = strings.TrimPrefix(k, r.prefix)
	}
	return out
}
