package membership_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/failstop"
	"repro/internal/membership"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
)

// harness drives a manager the way core does: Step, Finish, commit — one
// frame at a time against the auth processor's stable store.
type harness struct {
	t    *testing.T
	rs   *spec.ReconfigSpec
	pool *failstop.Pool
	mgr  *membership.Manager
	st   *stable.Store
}

func newHarness(t *testing.T, spares int, events []membership.Event) *harness {
	t.Helper()
	rs := spectest.ThreeConfigWithSpares(spares)
	pool := failstop.NewPool(rs.Platform)
	mgr, err := membership.NewManager(membership.Config{
		Spec:   rs,
		Pool:   pool,
		Auth:   "p1",
		Events: events,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	p1, err := pool.Proc("p1")
	if err != nil {
		t.Fatalf("pool.Proc(p1): %v", err)
	}
	return &harness{t: t, rs: rs, pool: pool, mgr: mgr, st: p1.Stable()}
}

// frame runs one full frame: membership step, finish, stable commit.
func (h *harness) frame(f int64) {
	h.t.Helper()
	h.mgr.Step(f, h.st)
	h.mgr.Finish(f, h.st, nil)
	h.st.Commit()
}

// corruptRecord overwrites the committed membership record between frames,
// the way a storage fault (or a test of the self-stabilization path) would:
// stable storage survives fail-stop halts, so a corrupt committed record is
// exactly what a restored kernel could face.
func (h *harness) corruptRecord(raw []byte) {
	h.st.Put(membership.RecordKey, raw)
	h.st.Commit()
}

func TestEncodeDecodeRecord(t *testing.T) {
	v := membership.View{Epoch: 7, Auth: "p1", Members: []membership.Member{
		{Proc: "p1", Status: membership.StatusActive, CaughtUp: true},
		{Proc: "p2", Status: membership.StatusJoining, CatchUp: 2},
	}}
	raw := membership.EncodeRecord(v)
	got, err := membership.DecodeRecord(raw)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if got.Epoch != v.Epoch || got.Auth != v.Auth || len(got.Members) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}

	if _, err := membership.DecodeRecord([]byte("not a record at all")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	// A torn record: the binary layout intact, one byte of the body flipped
	// (the epoch varint, 7 -> 8), so the checksum covers different content.
	torn := append([]byte(nil), raw...)
	if torn[1] != 14 { // zigzag varint of 7
		t.Fatalf("epoch byte = %d, want 14: record layout changed", torn[1])
	}
	torn[1] = 16 // zigzag varint of 8
	_, err = membership.DecodeRecord(torn)
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn record: got %v, want torn-record error", err)
	}
	if !errors.Is(err, stable.ErrCorrupt) {
		t.Fatalf("torn record error %v does not wrap stable.ErrCorrupt", err)
	}
}

// tornRecord is a well-formed epoch-3 record whose checksum trailer does not
// match its body.
func tornRecord() []byte {
	raw := membership.EncodeRecord(membership.View{Epoch: 3, Auth: "p1", Members: []membership.Member{
		{Proc: "p1", Status: membership.StatusActive, CaughtUp: true},
	}})
	raw[len(raw)-1] ^= 0x5A
	return raw
}

func TestVerifyRejectsRemovingPlacedProcessor(t *testing.T) {
	rs := spectest.ThreeConfigWithSpares(1)
	if err := membership.Verify(rs, []spec.ProcID{"p1", "p2"}); err != nil {
		t.Fatalf("base member set must verify: %v", err)
	}
	if err := membership.Verify(rs, []spec.ProcID{"p1", "p2", "p3"}); err != nil {
		t.Fatalf("superset must verify: %v", err)
	}
	// p2 hosts the FCS in CfgFull: the shrunken table cannot verify.
	if err := membership.Verify(rs, []spec.ProcID{"p1"}); err == nil {
		t.Fatal("removing a placed processor must fail verification")
	}
}

func TestJoinCatchUpPromoteAndLeave(t *testing.T) {
	h := newHarness(t, 1, []membership.Event{
		{Frame: 2, Proc: "p3", Op: membership.OpJoin},
		{Frame: 10, Proc: "p3", Op: membership.OpLeave},
	})
	if got := h.mgr.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	for f := int64(0); f <= 12; f++ {
		h.frame(f)
		switch f {
		case 1:
			if cands := h.mgr.TakeoverCandidates(); len(cands) != 1 || cands[0] != "p2" {
				t.Fatalf("frame 1 candidates = %v, want [p2]", cands)
			}
		case 2:
			v := h.mgr.View()
			mem := v.Member("p3")
			if mem == nil || mem.Status != membership.StatusJoining {
				t.Fatalf("frame 2: p3 = %+v, want joining", mem)
			}
			if v.Epoch != 2 {
				t.Fatalf("frame 2 epoch = %d, want 2 (join bumps)", v.Epoch)
			}
		case 5:
			// Joined at 2 with the default 3 catch-up frames: promoted by
			// the end of frame 4.
			mem := h.mgr.View().Member("p3")
			if mem == nil || mem.Status != membership.StatusActive || !mem.CaughtUp {
				t.Fatalf("frame 5: p3 = %+v, want caught-up active", mem)
			}
			if cands := h.mgr.TakeoverCandidates(); len(cands) != 2 {
				t.Fatalf("frame 5 candidates = %v, want [p2 p3]", cands)
			}
		case 10:
			if mem := h.mgr.View().Member("p3"); mem != nil {
				t.Fatalf("frame 10: p3 still a member after verified leave: %+v", mem)
			}
		}
	}
	st := h.mgr.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Rejected != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if vs := membership.CheckLog(h.mgr.Log()); len(vs) != 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}

func TestUnverifiableLeaveRejectedPriorEpochServes(t *testing.T) {
	h := newHarness(t, 0, []membership.Event{
		{Frame: 3, Proc: "p2", Op: membership.OpLeave},
	})
	for f := int64(0); f <= 6; f++ {
		h.frame(f)
	}
	// The change was rejected: p2 hosts the FCS in CfgFull, so the shrunken
	// transition table fails its static obligations.
	rejs := h.mgr.Rejections()
	if len(rejs) != 1 || rejs[0].Proc != "p2" || rejs[0].Op != membership.OpLeave {
		t.Fatalf("rejections = %+v, want one leave(p2)", rejs)
	}
	if !strings.Contains(rejs[0].Reason, "fails") {
		t.Fatalf("rejection reason %q does not name the failed verification", rejs[0].Reason)
	}
	// The prior epoch keeps serving: no epoch moved, the member set is
	// intact, and the committed record still names p2.
	if got := h.mgr.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after rejected change, want 1", got)
	}
	if h.mgr.View().Member("p2") == nil {
		t.Fatal("p2 dropped despite rejection")
	}
	raw, ok := h.st.Get(membership.RecordKey)
	if !ok {
		t.Fatal("no committed membership record")
	}
	v, err := membership.DecodeRecord(raw)
	if err != nil {
		t.Fatalf("committed record: %v", err)
	}
	if v.Epoch != 1 || v.Member("p2") == nil {
		t.Fatalf("committed record = %+v, want epoch 1 with p2", v)
	}
	if vs := membership.CheckLog(h.mgr.Log()); len(vs) != 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}

func TestRequiredHostMayNotLeave(t *testing.T) {
	h := newHarness(t, 0, []membership.Event{
		{Frame: 2, Proc: "p1", Op: membership.OpLeave},
	})
	for f := int64(0); f <= 3; f++ {
		h.frame(f)
	}
	rejs := h.mgr.Rejections()
	if len(rejs) != 1 || !strings.Contains(rejs[0].Reason, "required") {
		t.Fatalf("rejections = %+v, want required-host rejection", rejs)
	}
	if h.mgr.View().Member("p1") == nil {
		t.Fatal("required SCRAM host left the view")
	}
}

func TestCrashEvictionAndRepairRejoin(t *testing.T) {
	h := newHarness(t, 0, nil)
	h.frame(0)
	h.frame(1)
	if err := h.pool.Fail("p2", 2); err != nil {
		t.Fatalf("Fail(p2): %v", err)
	}
	h.frame(2)
	mem := h.mgr.View().Member("p2")
	if mem == nil || mem.Status != membership.StatusDown {
		t.Fatalf("after failure: p2 = %+v, want down", mem)
	}
	if cands := h.mgr.TakeoverCandidates(); len(cands) != 0 {
		t.Fatalf("candidates with p2 down = %v, want none", cands)
	}
	epochAtEvict := h.mgr.Epoch()
	if err := h.pool.Repair("p2"); err != nil {
		t.Fatalf("Repair(p2): %v", err)
	}
	for f := int64(3); f <= 6; f++ {
		h.frame(f)
	}
	mem = h.mgr.View().Member("p2")
	if mem == nil || mem.Status != membership.StatusActive || !mem.CaughtUp {
		t.Fatalf("after repair + catch-up: p2 = %+v, want caught-up active", mem)
	}
	if h.mgr.Epoch() <= epochAtEvict {
		t.Fatalf("epoch did not advance across rejoin: %d", h.mgr.Epoch())
	}
	st := h.mgr.Stats()
	if st.Evictions != 1 {
		t.Fatalf("stats = %+v, want one eviction", st)
	}
	if vs := membership.CheckLog(h.mgr.Log()); len(vs) != 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}

// TestConvergenceFromArbitraryCorruption is the self-stabilization
// acceptance test: from an arbitrarily corrupted committed membership
// record, the manager converges back to a legal configuration within a
// documented bound — corruption committed at the end of frame k is visible
// from frame k+1, detected in the first Step after visibility, and a legal
// record is re-committed at that same frame's boundary: at most 2 frames
// after the corrupting commit, the committed record is legal again.
func TestConvergenceFromArbitraryCorruption(t *testing.T) {
	ghost := membership.EncodeRecord(membership.View{
		Epoch: 999,
		Auth:  "p1",
		Members: []membership.Member{
			{Proc: "p1", Status: membership.StatusActive, CaughtUp: true},
			{Proc: "zombie", Status: membership.StatusActive, CaughtUp: true},
		},
	})
	divergent := membership.EncodeRecord(membership.View{
		Epoch: 1,
		Auth:  "p2",
		Members: []membership.Member{
			{Proc: "p1", Status: membership.StatusActive, CaughtUp: true},
			{Proc: "p2", Status: membership.StatusActive, CaughtUp: true},
		},
	})
	cases := []struct {
		name string
		raw  []byte
		// minEpoch is the epoch the converged view must strictly exceed.
		minEpoch int64
	}{
		{"garbage-bytes", []byte("\x00\xff not a record"), 0},
		// A torn record in the JSON shape records had before the binary
		// codec: there is no JSON fallback decoder, so it is corrupt too.
		{"torn-json", []byte(`{"view":{"epoch":3},"crc":12345}`), 0},
		{"torn-record", tornRecord(), 0},
		{"ghost-member-valid-crc", ghost, 999},
		{"divergent-auth-valid-crc", divergent, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 0, nil)
			for f := int64(0); f <= 3; f++ {
				h.frame(f)
			}
			before := h.mgr.Stats().Converges

			// Corruption commits at the end of frame 3 (between frames):
			// it becomes visible at frame 4.
			h.corruptRecord(tc.raw)

			h.frame(4) // detection and re-commit happen within this frame
			if got := h.mgr.Stats().Converges; got != before+1 {
				t.Fatalf("converges = %d after corrupt frame, want %d", got, before+1)
			}
			raw, ok := h.st.Get(membership.RecordKey)
			if !ok {
				t.Fatal("no committed record after convergence frame")
			}
			v, err := membership.DecodeRecord(raw)
			if err != nil {
				t.Fatalf("record still corrupt after convergence frame: %v", err)
			}
			if v.Epoch != h.mgr.Epoch() {
				t.Fatalf("committed epoch %d != view epoch %d", v.Epoch, h.mgr.Epoch())
			}
			if v.Epoch <= tc.minEpoch {
				t.Fatalf("converged epoch %d not past corrupt record's claimed %d", v.Epoch, tc.minEpoch)
			}
			for _, mem := range v.Members {
				if _, ok := h.rs.Platform.Proc(mem.Proc); !ok {
					t.Fatalf("converged record names undeclared processor %q", mem.Proc)
				}
			}

			// Stability: the converged record is accepted from the next
			// frame on — no oscillation.
			h.frame(5)
			h.frame(6)
			if got := h.mgr.Stats().Converges; got != before+1 {
				t.Fatalf("converges = %d after recovery, want %d (no oscillation)", got, before+1)
			}
			if vs := membership.CheckLog(h.mgr.Log()); len(vs) != 0 {
				t.Fatalf("invariant violations: %v", vs)
			}
		})
	}
}

func TestCheckLogViolations(t *testing.T) {
	members := []membership.Member{
		{Proc: "p1", Status: membership.StatusActive, CaughtUp: true},
		{Proc: "p2", Status: membership.StatusActive, CaughtUp: true},
	}
	base := func(f, epoch int64, auth spec.ProcID) membership.FrameRecord {
		return membership.FrameRecord{Frame: f, Epoch: epoch, Auth: auth, Members: members}
	}

	t.Run("clean", func(t *testing.T) {
		log := []membership.FrameRecord{base(0, 1, "p1"), base(1, 1, "p1"), base(2, 2, "p1")}
		if vs := membership.CheckLog(log); len(vs) != 0 {
			t.Fatalf("violations on clean log: %v", vs)
		}
	})
	t.Run("epoch-monotonic", func(t *testing.T) {
		log := []membership.FrameRecord{base(0, 5, "p1"), base(1, 3, "p1")}
		vs := membership.CheckLog(log)
		if len(vs) != 1 || vs[0].Invariant != "epoch_monotonic" {
			t.Fatalf("violations = %v, want one epoch_monotonic", vs)
		}
	})
	t.Run("no-split-brain", func(t *testing.T) {
		log := []membership.FrameRecord{base(0, 1, "p1"), base(1, 1, "p2")}
		vs := membership.CheckLog(log)
		if len(vs) != 1 || vs[0].Invariant != "no_split_brain" {
			t.Fatalf("violations = %v, want one no_split_brain", vs)
		}
	})
	t.Run("safe-handoff", func(t *testing.T) {
		rec := base(0, 1, "p1")
		rec.Owners = []membership.Owner{{App: "fcs", Proc: "p9"}, {App: "ap", Proc: ""}}
		vs := membership.CheckLog([]membership.FrameRecord{rec})
		if len(vs) != 2 {
			t.Fatalf("violations = %v, want two safe_handoff", vs)
		}
		for _, v := range vs {
			if v.Invariant != "safe_handoff" {
				t.Fatalf("violation %v, want safe_handoff", v)
			}
		}
	})
}
