package inject

import (
	"testing"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestRecoveredRingRoundTrip is the black-box round trip: run the canonical
// system through an injected fail-stop halt of an application processor,
// poll the SCRAM host's committed stable storage — exactly what a
// post-mortem reader would do — recover the flight-recorder ring, and check
// that the trace reconstructed from it passes the same SP1-SP4 checkers as
// the live trace, frame for frame.
func TestRecoveredRingRoundTrip(t *testing.T) {
	rs := spectest.ThreeConfig()
	const frames = 60
	sys, err := core.NewSystem(core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     spectest.ThreeConfigClassifier,
		InitialFactors: map[envmon.Factor]string{"alt1": "ok", "alt2": "ok"},
		Script: []envmon.Event{
			{Frame: 10, Factor: "alt1", Value: "failed"},
			{Frame: 35, Factor: "alt1", Value: "ok"},
		},
		ProcEvents: []core.ProcEvent{{Frame: 22, Proc: "p2", Kind: core.ProcFail}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Run(frames); err != nil {
		t.Fatal(err)
	}

	ring := recoverRing(sys)
	if len(ring) == 0 {
		t.Fatal("no ring recovered from the SCRAM host's stable storage")
	}

	// The injected halt must be on the black box.
	var halts int
	for _, e := range ring {
		if e.Kind == telemetry.KindProcHalt && e.Host == "p2" {
			halts++
		}
	}
	if halts == 0 {
		t.Error("injected fail-stop halt of p2 not recorded in the ring")
	}

	live := sys.Trace()
	rec, base, err := telemetry.ReconstructTrace(live.System, live.FrameLen, ring)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 {
		t.Fatalf("ring evicted frames (base %d); test expects full coverage", base)
	}
	if rec.Len() != live.Len() {
		t.Fatalf("reconstructed trace has %d cycles, live has %d", rec.Len(), live.Len())
	}
	for i := range live.States {
		ls, rsx := live.States[i], rec.States[i]
		if ls.Config != rsx.Config || ls.Env != rsx.Env {
			t.Fatalf("cycle %d: live (%s,%s) != reconstructed (%s,%s)",
				i, ls.Config, ls.Env, rsx.Config, rsx.Env)
		}
		for id, la := range ls.Apps {
			if ra := rsx.Apps[id]; la != ra {
				t.Fatalf("cycle %d app %s: live %+v != reconstructed %+v", i, id, la, ra)
			}
		}
	}

	liveV := trace.CheckAll(live, rs)
	recV := trace.CheckAll(rec, rs)
	if len(liveV) != len(recV) {
		t.Fatalf("checker disagreement: live %d violation(s) %v, reconstructed %d violation(s) %v",
			len(liveV), liveV, len(recV), recV)
	}
	if len(liveV) != 0 {
		t.Errorf("live trace has violations: %v", liveV)
	}

	sum := telemetry.Summarize(ring)
	if len(sum.Reconfigs) == 0 {
		t.Error("summary found no reconfiguration windows")
	}
	for _, r := range sum.Reconfigs {
		if r.Complete() && r.BoundFrames > 0 && r.WindowFrames > r.BoundFrames {
			t.Errorf("window %s->%s took %d frames, over bound %d", r.Source, r.Target, r.WindowFrames, r.BoundFrames)
		}
	}
}

// TestDefeatModeRingSPRoundTrip runs the s1 defeat-mode campaign — storage
// corruption beats single-replica redundancy, the store converts the fault
// to a fail-stop halt — and re-certifies the run from the recovered ring.
func TestDefeatModeRingSPRoundTrip(t *testing.T) {
	m, live, err := StorageCampaign{
		Seed:      3,
		Frames:    150,
		EnvEvents: 5,
		Replicas:  1,
		Faults:    stable.FaultProfile{BitRotRate: 0.4},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.StorageHalts == 0 {
		t.Fatal("defeat-mode campaign produced no fail-stop halt; pick a different seed")
	}
	if len(m.Ring) == 0 {
		t.Fatal("campaign recovered no ring")
	}

	rs := spectest.ThreeConfig()
	rec, _, err := telemetry.ReconstructTrace(live.System, live.FrameLen, m.Ring)
	if err != nil {
		t.Fatal(err)
	}
	liveV := trace.CheckAll(live, rs)
	recV := trace.CheckAll(rec, rs)
	if len(liveV) != 0 || len(recV) != 0 {
		t.Errorf("SP violations: live %v, reconstructed %v", liveV, recV)
	}
}
