package membership

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/spectest"
	"repro/internal/stable"
)

// FuzzDecodeMembershipRecord feeds arbitrary bytes to the in-place decoder
// the manager's per-frame record check uses. It must never panic; a record
// it accepts must re-encode to exactly the input bytes, with nothing left
// over from the scratch view it decoded into; anything else must be a
// stable.ErrCorrupt, which the convergence path turns into a re-committed
// view under a larger epoch. The seed corpus in
// testdata/fuzz/FuzzDecodeMembershipRecord holds a three-member view and
// damaged variants.
func FuzzDecodeMembershipRecord(f *testing.F) {
	rs := spectest.ThreeConfigWithSpares(1)
	f.Add(EncodeRecord(View{Epoch: 4, Auth: "p1", Members: []Member{
		{Proc: "p1", Status: StatusActive, CaughtUp: true},
		{Proc: "p3", Status: StatusJoining, CatchUp: 2},
	}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// A scratch view that already holds members, as the manager's does.
		v := View{Epoch: 99, Auth: "p2", Members: []Member{{Proc: "p2", Status: StatusDown, CatchUp: 7}}}
		err := decodeRecordInto(raw, rs, &v)
		if err != nil {
			if !errors.Is(err, stable.ErrCorrupt) {
				t.Fatalf("decode error %v is not stable.ErrCorrupt", err)
			}
			return
		}
		if again := EncodeRecord(v); !bytes.Equal(again, raw) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
