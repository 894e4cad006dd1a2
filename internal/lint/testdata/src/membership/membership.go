// Fixture for the membership package's lint scope. The package is named
// membership so the framedet and nofreegoroutine gates admit it, and it
// imports the real module package so stableerr matches the same
// (package, symbol) pairs it matches in production code. The patterns
// mirror the membership manager: a frame-synchronous view, a checksummed
// record on stable storage, and per-frame catch-up copies — all of which
// must stay deterministic, frame-synchronous, and fail-stop on record
// errors.
package membership

import (
	"sort"
	"time"

	mem "repro/internal/membership"
	"repro/internal/stable"
)

// view mirrors the manager's member bookkeeping: a map whose iteration
// order must never reach stable storage or a return value.
type view struct {
	epoch   int64
	members map[string]bool
}

// stampEpochNow is the tempting bug the framedet scope exists to catch:
// wall-clock epochs. Epochs are logical, bumped only at frame boundaries.
func stampEpochNow() int64 {
	return time.Now().UnixNano() // want `call to time.Now`
}

// stageMembers writes each member under its own key by ranging over the
// map: the staged write order would depend on map iteration order.
func stageMembers(v view, st *stable.Store) {
	for id := range v.members {
		st.Put("membership/member/"+id, nil) // want `calls mutator st.Put`
	}
}

// memberList returns the members by appending through an outer variable
// inside a map range: the returned order is nondeterministic.
func memberList(v view) []string {
	var out []string
	for id := range v.members {
		out = append(out, id) // want `writes out declared outside the loop`
	}
	return out
}

// asyncCatchUp is the concurrency bug the nofreegoroutine scope catches: a
// background copier would race the frame barrier, and a joiner could be
// promoted on a copy no frame boundary ever observed.
func asyncCatchUp(v view) {
	go func() { // want `go statement in frame-synchronous package "membership"`
		v.epoch++
	}()
}

// dropRecordErrors drops the record codec's and the re-verifier's errors: a
// corrupt record or an unverifiable member set must reach the convergence or
// rejection path, not silently keep the stale epoch serving.
func dropRecordErrors(v mem.View) {
	mem.Verify(nil, nil)            // want `error from repro/internal/membership.Verify is dropped`
	got, _ := mem.DecodeRecord(nil) // want `error from repro/internal/membership.DecodeRecord is assigned to _`
	_ = got
}

// sortedMembers is the required idiom: collect, sort, then emit.
func sortedMembers(v view) []string {
	ids := make([]string, 0, len(v.members))
	for id := range v.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// finishFrame shows the legal form: the record error returned to the
// caller, which owns the halt path.
func finishFrame(m *mem.Manager, st *stable.Store) error {
	if _, err := mem.DecodeRecord(nil); err != nil {
		return err
	}
	m.Finish(1, st, nil)
	return nil
}
