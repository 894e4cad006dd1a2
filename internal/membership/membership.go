// Package membership adds dynamic processor membership to the fail-stop
// architecture: processors join and leave the platform at runtime under a
// frame-synchronous membership view with monotone epoch numbers persisted to
// stable storage.
//
// The paper assumes a static processor set verified once, offline. Following
// Dolev et al.'s self-stabilizing reconfiguration and Hufflen's
// re-verification view, this package relaxes that in two assured steps:
//
//   - Every membership change is re-verified online before its epoch
//     commits: the covering/acyclicity/timing/resource obligations of
//     package statics are discharged against the would-be processor set, and
//     an unverifiable change (for example draining a processor the
//     configuration set still places applications on) is rejected — the
//     prior epoch keeps serving.
//
//   - The committed membership record is validated every frame. A torn or
//     corrupted record, a record naming processors the platform never
//     declared, or a record that diverged from the authoritative
//     frame-synchronous view drives a bounded convergence: the manager
//     re-commits a legal view under a strictly larger epoch instead of
//     halting or serving from garbage. Corruption committed at frame k is
//     detected at k+1 and a legal record is committed again by the end of
//     k+1 — convergence within two frames of the corruption becoming
//     visible.
//
// A joining processor is not takeover-eligible until it has caught up: the
// manager copies the SCRAM's committed state onto the joiner's stable
// storage each frame (under a private prefix), and after CatchUpFrames
// copies the joiner is promoted to an active standby. Caught-up copies keep
// refreshing afterwards, so every standby holds a local snapshot at most one
// frame stale — the last-resort restore source when the failed primary's own
// snapshot turns out to be corrupt.
//
// Invariants checked over the per-frame membership log, alongside SP1-SP4:
// epoch monotonicity, no-split-brain (at most one authoritative kernel host
// per epoch), and safe handoff (no frame in which a placed application has
// no owning member processor).
package membership

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/spec"
)

// Status is a member processor's lifecycle state within the view.
type Status string

const (
	// StatusActive members serve placements and, once caught up, are
	// takeover-eligible.
	StatusActive Status = "active"
	// StatusJoining members are catching up from the SCRAM's stable state
	// and are not yet takeover-eligible.
	StatusJoining Status = "joining"
	// StatusDown members have been crash-evicted: the processor failed and
	// the view records it as non-serving until it is repaired. Eviction
	// changes no placements, so it needs no re-verification; the member
	// re-enters through the joining state when repaired.
	StatusDown Status = "down"
)

// Member is one processor's entry in the membership view.
type Member struct {
	Proc   spec.ProcID `json:"proc"`
	Status Status      `json:"status"`
	// CatchUp counts completed catch-up copy frames while joining.
	CatchUp int `json:"catch_up,omitempty"`
	// CaughtUp marks the member takeover-eligible: it holds a usable copy
	// of the SCRAM's stable state.
	CaughtUp bool `json:"caught_up,omitempty"`
}

// View is the frame-synchronous membership view: the epoch number, the
// authoritative kernel host, and the member set sorted by processor ID.
type View struct {
	Epoch   int64
	Auth    spec.ProcID
	Members []Member
}

// Member returns the view's entry for proc, or nil. The pointer aliases the
// view's member slice.
func (v View) Member(proc spec.ProcID) *Member {
	for i := range v.Members {
		if v.Members[i].Proc == proc {
			return &v.Members[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	out := v
	out.Members = append([]Member(nil), v.Members...)
	return out
}

// RecordKey is the stable-storage key of the committed membership record. It
// lives outside the "scram/" prefix: the status-discipline lint reserves
// that namespace for the kernel's own writes.
const RecordKey = "membership/view"

// catchUpPrefix prefixes the catch-up copy of the SCRAM's stable state on a
// joining or standby member's own store.
const catchUpPrefix = "membership/catchup/"

// The committed membership record uses the frame-path record codec of
// package stable: tag byte, the epoch, the authoritative host, the member
// count, then per member its processor, status, catch-up count and
// eligibility flag, all under a CRC32C trailer — a torn or bit-flipped
// record is detected by the checksum rather than decoded into garbage.
const tagView byte = 'M'

// memberMinSize is the smallest encoding of one member: two empty strings'
// lengths, a one-byte varint and a flag.
const memberMinSize = 4

// appendRecord appends the checksummed record of v to dst.
func appendRecord(dst []byte, v View) []byte {
	start := len(dst)
	dst = append(dst, tagView)
	dst = codec.AppendVarint(dst, v.Epoch)
	dst = codec.AppendString(dst, string(v.Auth))
	dst = codec.AppendCount(dst, len(v.Members))
	for i := range v.Members {
		mem := &v.Members[i]
		dst = codec.AppendString(dst, string(mem.Proc))
		dst = codec.AppendString(dst, string(mem.Status))
		dst = codec.AppendVarint(dst, int64(mem.CatchUp))
		dst = codec.AppendFlag(dst, mem.CaughtUp)
	}
	return codec.SealRecord(dst, start)
}

// EncodeRecord renders a view as a checksummed stable-storage record.
func EncodeRecord(v View) []byte { return appendRecord(nil, v) }

// DecodeRecord parses and checks a committed membership record. Every
// failure — a checksum mismatch (a torn write) or a malformed field — wraps
// stable.ErrCorrupt.
func DecodeRecord(raw []byte) (View, error) {
	var v View
	if err := decodeRecordInto(raw, nil, &v); err != nil {
		return View{}, err
	}
	return v, nil
}

// decodeRecordInto decodes a committed membership record into v in place,
// reusing v's member slice, and interns the processor IDs against rs's
// platform (nil rs interns nothing). A view decoded from the frame's own
// records allocates nothing.
func decodeRecordInto(raw []byte, rs *spec.ReconfigSpec, v *View) error {
	r := codec.OpenRecord(raw, tagView)
	v.Epoch = r.Varint()
	v.Auth = internProc(rs, r.Bytes())
	n := r.Count(memberMinSize)
	v.Members = v.Members[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		//lint:allow allocfree bounded: the scratch view grows to the largest member set once, then is reused
		v.Members = append(v.Members, Member{
			Proc:     internProc(rs, r.Bytes()),
			Status:   internStatus(r.Bytes()),
			CatchUp:  int(r.Varint()),
			CaughtUp: r.Flag(),
		})
	}
	if err := r.Close(); err != nil {
		//lint:allow allocfree corrupt-record path: formats only for a record that failed its check, and the frame then converges to a re-committed view
		return fmt.Errorf("membership: corrupt record: %w", err)
	}
	return nil
}

// internProc returns the platform's own string for a decoded processor ID.
func internProc(rs *spec.ReconfigSpec, b []byte) spec.ProcID {
	if rs != nil {
		for i := range rs.Platform.Procs {
			if id := rs.Platform.Procs[i].ID; string(id) == string(b) {
				return id
			}
		}
	}
	return spec.ProcID(b)
}

// internStatus returns the status constant for a decoded member status.
func internStatus(b []byte) Status {
	for _, st := range [...]Status{StatusActive, StatusJoining, StatusDown} {
		if string(st) == string(b) {
			return st
		}
	}
	return Status(b)
}

// membersEqual reports whether two sorted member slices agree on membership:
// processor, status and takeover eligibility. The catch-up frame counter is
// bookkeeping that advances without an epoch change (the committed record is
// only rewritten when the view moves to a new epoch), so it is excluded —
// otherwise every catch-up frame would read as record divergence.
func membersEqual(a, b []Member) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Proc != b[i].Proc || a[i].Status != b[i].Status || a[i].CaughtUp != b[i].CaughtUp {
			return false
		}
	}
	return true
}
