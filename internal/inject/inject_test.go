package inject

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/statics"
	"repro/internal/trace"
)

// TestRandomSpecsDischargeObligations: the generator only produces
// specifications whose static obligations all discharge — the precondition
// for the property campaigns below.
func TestRandomSpecsDischargeObligations(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := spectest.Random(rng, 2+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(3))
		report, err := statics.Check(rs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !report.AllDischarged() {
			t.Fatalf("seed %d: obligations failed: %v", seed, report.Failures())
		}
	}
}

// TestRandomCampaignsSatisfyProperties is the Table 2 reproduction workload:
// arbitrary valid systems under arbitrary environment flapping must satisfy
// SP1-SP4 on every completed reconfiguration.
func TestRandomCampaignsSatisfyProperties(t *testing.T) {
	reconfigsSeen := 0
	for seed := int64(0); seed < 25; seed++ {
		c := RandomCampaign{
			Seed:      seed,
			Frames:    250,
			Apps:      2 + int(seed%4),
			Configs:   2 + int(seed%3),
			Envs:      2 + int(seed%3),
			EnvEvents: 12,
		}
		m, _, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Violations) != 0 {
			for _, v := range m.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: properties violated", seed)
		}
		reconfigsSeen += m.Reconfigs
	}
	// The campaigns must actually exercise reconfiguration, not pass
	// vacuously.
	if reconfigsSeen < 10 {
		t.Fatalf("campaigns performed only %d reconfigurations; workload too weak", reconfigsSeen)
	}
}

// TestCanonicalCampaignsSatisfyProperties drives the avionics-shaped system
// through randomized alternator churn and processor failures, with and
// without the replicated SCRAM.
func TestCanonicalCampaignsSatisfyProperties(t *testing.T) {
	reconfigsSeen := 0
	for seed := int64(0); seed < 10; seed++ {
		c := CanonicalCampaign{
			Seed:         seed,
			Frames:       400,
			EnvEvents:    8,
			ProcFailures: 1,
			Standby:      seed%2 == 0,
			Dwell:        3,
		}
		m, _, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Violations) != 0 {
			for _, v := range m.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: properties violated", seed)
		}
		reconfigsSeen += m.Reconfigs
	}
	if reconfigsSeen == 0 {
		t.Fatal("no reconfigurations exercised")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() Metrics {
		m, _, err := CanonicalCampaign{Seed: 42, Frames: 200, EnvEvents: 6, Dwell: 2}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := run(), run()
	if m1.Reconfigs != m2.Reconfigs || m1.WindowTotal != m2.WindowTotal || m1.ChainMax != m2.ChainMax {
		t.Fatalf("same seed, different metrics: %+v vs %+v", m1, m2)
	}
}

func TestCollectMetrics(t *testing.T) {
	// Synthetic trace: two reconfiguration windows separated by a single
	// normal frame (one chain), then a long normal gap and a third
	// window (a new chain).
	tr := &trace.Trace{System: "m", FrameLen: time.Millisecond}
	state := func(c int64, status trace.ReconfStatus) trace.SysState {
		return trace.SysState{Cycle: c, Config: "full", Env: "env-ok",
			Apps: map[spec.AppID]trace.AppState{
				"a": {Status: status, Spec: "s", PreOK: true},
			}}
	}
	statuses := []trace.ReconfStatus{
		trace.StatusNormal,      // 0
		trace.StatusInterrupted, // 1  window 1: [1,4], 4 frames
		trace.StatusHalting,     // 2
		trace.StatusPreparing,   // 3
		trace.StatusNormal,      // 4  end of window 1
		trace.StatusInterrupted, // 5  window 2: [5,7], 3 frames (chain with 1)
		trace.StatusHalting,     // 6
		trace.StatusNormal,      // 7  end of window 2
		trace.StatusNormal,      // 8
		trace.StatusNormal,      // 9
		trace.StatusNormal,      // 10
		trace.StatusNormal,      // 11
		trace.StatusInterrupted, // 12 window 3: [12,14], 3 frames (new chain)
		trace.StatusHalting,     // 13
		trace.StatusNormal,      // 14 end of window 3
		trace.StatusNormal,      // 15
	}
	for c, st := range statuses {
		if err := tr.Append(state(int64(c), st)); err != nil {
			t.Fatal(err)
		}
	}
	rs := spectest.ThreeConfig()
	m := Collect(tr, rs, 1)
	if m.Frames != 16 {
		t.Errorf("Frames = %d", m.Frames)
	}
	if m.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3", m.Reconfigs)
	}
	if m.WindowMax != 4 {
		t.Errorf("WindowMax = %d, want 4", m.WindowMax)
	}
	if m.WindowTotal != 10 {
		t.Errorf("WindowTotal = %d, want 10", m.WindowTotal)
	}
	// Windows 1 and 2 are separated by zero normal interior frames
	// (end 4, start 5): one chain of 7; window 3 stands alone.
	if m.ChainMax != 7 {
		t.Errorf("ChainMax = %d, want 7", m.ChainMax)
	}
	if m.OpenWindow {
		t.Error("unexpected open window")
	}
	// RestrictionFrames counts the non-normal cycles: 3 + 2 + 2.
	if m.RestrictionFrames != 7 {
		t.Errorf("RestrictionFrames = %d, want 7", m.RestrictionFrames)
	}
}

func TestCollectOpenWindow(t *testing.T) {
	tr := &trace.Trace{System: "m", FrameLen: time.Millisecond}
	states := []trace.ReconfStatus{trace.StatusNormal, trace.StatusInterrupted, trace.StatusHalting}
	for c, st := range states {
		err := tr.Append(trace.SysState{Cycle: int64(c), Config: "full", Env: "e",
			Apps: map[spec.AppID]trace.AppState{"a": {Status: st, Spec: "s", PreOK: true}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	m := Collect(tr, spectest.ThreeConfig(), 1)
	if !m.OpenWindow {
		t.Error("open window not reported")
	}
	if m.Reconfigs != 0 {
		t.Errorf("Reconfigs = %d, want 0", m.Reconfigs)
	}
}

// TestFailureInEveryProtocolFrame is experiment E5: a second failure lands
// in each frame of the first reconfiguration window in turn — trigger frame,
// halt frame, prepare frame, both init frames, and the completion frame —
// and the properties must hold in every case (the buffer policy defers the
// second transition to a fresh window).
func TestFailureInEveryProtocolFrame(t *testing.T) {
	// The first window for full -> reduced is [20, 24].
	for offset := int64(0); offset <= 5; offset++ {
		offset := offset
		t.Run(fmt.Sprintf("offset=%d", offset), func(t *testing.T) {
			rs := spectest.ThreeConfig()
			rs.DwellFrames = 1
			apps := core.BasicApps(rs)
			sys, err := core.NewSystem(core.Options{
				Spec:       rs,
				Apps:       apps,
				Classifier: func(f map[envmon.Factor]string) spec.EnvState { return spec.EnvState(f["power"]) },
				InitialFactors: map[envmon.Factor]string{
					"power": string(spectest.EnvFull),
				},
				Script: []envmon.Event{
					{Frame: 20, Factor: "power", Value: string(spectest.EnvReduced)},
					{Frame: 20 + offset, Factor: "power", Value: string(spectest.EnvBattery)},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.Run(60); err != nil {
				t.Fatal(err)
			}
			if got := sys.Kernel().Current(); got != spectest.CfgMinimal {
				t.Fatalf("final configuration = %s, want minimal", got)
			}
			if vs := sys.CheckProperties(); len(vs) != 0 {
				for _, v := range vs {
					t.Errorf("%s", v)
				}
				t.Fatal("properties violated")
			}
			// The buffered second failure yields a second window (or,
			// when it lands in the trigger frame itself, a direct
			// full -> minimal transition).
			rcs := sys.Trace().Reconfigs()
			if offset == 0 {
				if len(rcs) != 1 || rcs[0].To != spectest.CfgMinimal {
					t.Fatalf("same-frame double failure: %v", rcs)
				}
			} else if len(rcs) != 2 || rcs[1].To != spectest.CfgMinimal {
				t.Fatalf("windows = %v, want chain ending in minimal", rcs)
			}
		})
	}
}

// TestLongSoak runs long mixed campaigns (environment churn plus processor
// fail/repair cycles) and checks properties over the whole trace. Skipped in
// -short mode.
func TestLongSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(0); seed < 5; seed++ {
		m, tr, err := CanonicalCampaign{
			Seed:         seed,
			Frames:       3000,
			EnvEvents:    40,
			ProcFailures: 3,
			Standby:      seed%2 == 0,
			Dwell:        4,
		}.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Violations) != 0 {
			for _, v := range m.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d violated properties over %d frames", seed, tr.Len())
		}
		if m.Reconfigs == 0 {
			t.Errorf("seed %d: no reconfigurations in soak", seed)
		}
	}
}

// TestRandomCompressedCampaignsSatisfyProperties reruns the Table 2 workload
// with the section 6.3 compressed protocol: arbitrary valid systems under
// environment flapping must still satisfy SP1-SP4.
func TestRandomCompressedCampaignsSatisfyProperties(t *testing.T) {
	reconfigs := 0
	for seed := int64(100); seed < 115; seed++ {
		c := RandomCampaign{
			Seed:       seed,
			Frames:     250,
			Apps:       2 + int(seed%4),
			Configs:    2 + int(seed%3),
			Envs:       2 + int(seed%3),
			EnvEvents:  12,
			Compressed: true,
		}
		m, _, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Violations) != 0 {
			for _, v := range m.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: properties violated", seed)
		}
		reconfigs += m.Reconfigs
	}
	if reconfigs < 5 {
		t.Fatalf("only %d reconfigurations exercised", reconfigs)
	}
}

// TestExhaustiveBoundedVerification enumerates every environment sequence of
// length 4 over the canonical system's three states (81 complete system
// runs) and requires SP1-SP4 to hold in every single one — bounded
// exhaustive coverage rather than sampling.
func TestExhaustiveBoundedVerification(t *testing.T) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 2
	res, err := Exhaustive(rs, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 81 {
		t.Fatalf("runs = %d, want 3^4 = 81", res.Runs)
	}
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
		t.Fatal("bounded-exhaustive verification found violations")
	}
	if res.Reconfigs == 0 {
		t.Fatal("no reconfigurations exercised")
	}
}

// TestExhaustiveCompressed repeats bounded-exhaustive verification under the
// compressed protocol at a slightly smaller bound.
func TestExhaustiveCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := spectest.ThreeConfig()
	rs.Compression = true
	rs.DwellFrames = 2
	if err := spectest.SizeTransitions(rs, rng); err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(rs, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 27 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
		t.Fatal("violations under compression")
	}
}
