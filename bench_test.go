package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/avionics"
	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/frame"
	"repro/internal/fta"
	"repro/internal/inject"
	"repro/internal/masking"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/statics"
	"repro/internal/trace"
)

// BenchmarkTable1SFTAProtocol measures one complete Table 1 exchange: a
// failure signal through the kernel's trigger, halt, prepare, initialize
// frames to completion, including the stable-storage command traffic.
func BenchmarkTable1SFTAProtocol(b *testing.B) {
	rs := spectest.ThreeConfig()
	rs.DwellFrames = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := stable.NewStore()
		k, err := scram.NewKernel(rs, st)
		if err != nil {
			b.Fatal(err)
		}
		k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 0})
		for f := int64(0); f <= 4; f++ { // trigger + halt + prepare + 2 init frames
			if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
				b.Fatal(err)
			}
			st.Commit()
		}
		if k.Current() != spectest.CfgReduced {
			b.Fatalf("protocol did not complete: %s", k.Current())
		}
	}
}

// benchTrace builds a recorded trace with one reconfiguration per
// `period` cycles.
func benchTrace(cycles int, period int64) (*trace.Trace, *spec.ReconfigSpec) {
	rs := spectest.ThreeConfig()
	tr := &trace.Trace{System: "bench", FrameLen: rs.FrameLen}
	cfg := spectest.CfgFull
	for c := int64(0); c < int64(cycles); c++ {
		phase := c % period
		st := trace.SysState{
			Cycle:  c,
			Config: cfg,
			Env:    spectest.EnvFull,
			Apps:   make(map[spec.AppID]trace.AppState, 3),
		}
		var status trace.ReconfStatus
		switch phase {
		case 1:
			status = trace.StatusInterrupted
			st.Env = spectest.EnvReduced
		case 2:
			status = trace.StatusHalted
			st.Env = spectest.EnvReduced
		case 3:
			status = trace.StatusPrepared
			st.Env = spectest.EnvReduced
		default:
			status = trace.StatusNormal
		}
		// Alternate between the two configurations at window ends.
		if phase == 4 {
			if cfg == spectest.CfgFull {
				cfg = spectest.CfgReduced
				st.Env = spectest.EnvReduced
			} else {
				cfg = spectest.CfgFull
				st.Env = spectest.EnvFull
			}
			st.Config = cfg
		}
		for _, id := range []spec.AppID{spectest.AppAP, spectest.AppFCS, spectest.AppMonitor} {
			s := status
			if status == trace.StatusInterrupted && id != spectest.AppMonitor {
				s = trace.StatusNormal
			}
			st.Apps[id] = trace.AppState{Status: s, Spec: "s", PreOK: true}
		}
		if err := tr.Append(st); err != nil {
			panic(err)
		}
	}
	return tr, rs
}

// BenchmarkTable2PropertyCheck measures the SP1-SP4 checkers over traces of
// increasing length (each containing one reconfiguration per 50 cycles).
func BenchmarkTable2PropertyCheck(b *testing.B) {
	for _, cycles := range []int{100, 1000, 10000} {
		tr, rs := benchTrace(cycles, 50)
		b.Run(fmt.Sprintf("cycles=%d", cycles), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if vs := trace.CheckAll(tr, rs); len(vs) != 0 {
					b.Fatalf("violations: %v", vs)
				}
			}
		})
	}
}

// BenchmarkFigure1ArchitectureFrame measures the cost of one fully wired
// system frame (applications + monitor + SCRAM + commits + recorder) as the
// application count grows.
func BenchmarkFigure1ArchitectureFrame(b *testing.B) {
	for _, nApps := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("apps=%d", nApps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rs := spectest.Random(rng, nApps, 3, 3)
			apps := make(map[spec.AppID]core.App, nApps)
			for _, decl := range rs.RealApps() {
				decl := decl
				apps[decl.ID] = core.NewBasicApp(&decl)
			}
			sys, err := core.NewSystem(core.Options{
				Spec:           rs,
				Apps:           apps,
				Classifier:     func(f map[envmon.Factor]string) spec.EnvState { return rs.StartEnv },
				InitialFactors: map[envmon.Factor]string{},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2Obligations measures the static proof-obligation discharge
// (the TCC analog) for the avionics specification and for larger random
// specifications.
func BenchmarkFigure2Obligations(b *testing.B) {
	b.Run("avionics", func(b *testing.B) {
		rs := avionics.Spec()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			report, err := statics.Check(rs)
			if err != nil || !report.AllDischarged() {
				b.Fatalf("err=%v failures=%v", err, report.Failures())
			}
		}
	})
	for _, size := range []struct{ apps, cfgs, envs int }{{4, 4, 3}, {8, 6, 4}} {
		rng := rand.New(rand.NewSource(7))
		rs := spectest.Random(rng, size.apps, size.cfgs, size.envs)
		b.Run(fmt.Sprintf("random-%dx%dx%d", size.apps, size.cfgs, size.envs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := statics.Check(rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEquipmentAnalysis measures the section 5.1 sweep.
func BenchmarkEquipmentAnalysis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := masking.EquipmentSweep(4, 2, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskedFTABaseline measures the Schlichting-Schneider baseline:
// a 1000-frame mission with two spare restarts.
func BenchmarkMaskedFTABaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := masking.RunMaskedMission(4, 2, 1000, []int64{200, 600})
		if err != nil || st.Exhausted {
			b.Fatalf("err=%v stats=%+v", err, st)
		}
	}
}

// BenchmarkRestrictionTimeAnalysis measures the section 5.3 analysis
// (longest chain enumeration + interposition bounds) as part of Check.
func BenchmarkRestrictionTimeAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	rs := spectest.Random(rng, 3, 6, 4) // denser transition graph
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := statics.Check(rs)
		if err != nil {
			b.Fatal(err)
		}
		if report.Restriction.LongestChainFrames == 0 {
			b.Fatal("no chain found")
		}
	}
}

// BenchmarkAvionicsScenario measures whole-system frames of the section 7
// instantiation, including dynamics, sensors, bus traffic, and control laws.
func BenchmarkAvionicsScenario(b *testing.B) {
	sc, err := avionics.NewScenario(avionics.ScenarioOptions{
		Initial:     avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
		DwellFrames: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalCampaign measures a full fault-injection campaign
// (system construction, 200 frames with churn, metric collection).
func BenchmarkCanonicalCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _, err := inject.CanonicalCampaign{
			Seed: int64(i), Frames: 200, EnvEvents: 6, Dwell: 2,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Violations) != 0 {
			b.Fatalf("violations: %v", m.Violations)
		}
	}
}

// BenchmarkStableCommit measures the frame-atomic commit with a typical
// per-frame write set.
func BenchmarkStableCommit(b *testing.B) {
	s := stable.NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			s.PutInt64(fmt.Sprintf("key-%d", k), int64(i))
		}
		s.Commit()
	}
}

// BenchmarkStableCommitReplicated measures the hardened commit path against
// 1, 3, and 5 fault-free replicas — the marginal cost of mirroring,
// checksumming, and the commit record over the plain staged commit above.
func BenchmarkStableCommitReplicated(b *testing.B) {
	for _, replicas := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			s := stable.NewHardenedStore(stable.MediaProfile{Replicas: replicas, Seed: 1}, "bench")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 8; k++ {
					s.PutInt64(fmt.Sprintf("key-%d", k), int64(i))
				}
				s.Commit()
			}
		})
	}
}

// BenchmarkDwellGuardChurn measures the E3 churn experiment's system at two
// dwell settings (the runtime cost of the cycle guard is the comparison of
// interest; the reconfiguration counts are reported by cmd/faultsim).
func BenchmarkDwellGuardChurn(b *testing.B) {
	for _, dwell := range []int{1, 25} {
		b.Run(fmt.Sprintf("dwell=%d", dwell), func(b *testing.B) {
			var script []envmon.Event
			val := avionics.AltFailed
			for f := int64(10); f < 200; f += 20 {
				script = append(script, envmon.Event{Frame: f, Factor: avionics.FactorAlt1, Value: val})
				if val == avionics.AltFailed {
					val = avionics.AltOK
				} else {
					val = avionics.AltFailed
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc, err := avionics.NewScenario(avionics.ScenarioOptions{
					Initial:     avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
					Script:      script,
					DwellFrames: dwell,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sc.Sys.Run(200); err != nil {
					b.Fatal(err)
				}
				sc.Close()
			}
		})
	}
}

// BenchmarkSFTADerive measures reconstruction of the fault-tolerant-action
// structure from a recorded trace.
func BenchmarkSFTADerive(b *testing.B) {
	tr, _ := benchTrace(5000, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sftas := fta.Derive(tr)
		if len(sftas) == 0 {
			b.Fatal("no SFTAs derived")
		}
	}
}

// BenchmarkProtocolCompressionAblation compares the staged Table 1 protocol
// against the section 6.3 compressed protocol on heterogeneous phase
// durations, reporting both the execution cost and the achieved window
// length (frames/window).
func BenchmarkProtocolCompressionAblation(b *testing.B) {
	mkSpec := func(compress bool) *spec.ReconfigSpec {
		rs := spectest.ThreeConfig()
		rs.Deps = nil
		rs.DwellFrames = 0
		rs.Compression = compress
		for i := range rs.Apps {
			for j := range rs.Apps[i].Specs {
				sp := &rs.Apps[i].Specs[j]
				switch rs.Apps[i].ID {
				case spectest.AppAP:
					sp.HaltFrames, sp.PrepareFrames, sp.InitFrames = 3, 1, 1
				case spectest.AppFCS:
					sp.HaltFrames, sp.PrepareFrames, sp.InitFrames = 1, 3, 1
				}
			}
		}
		for i := range rs.Transitions {
			rs.Transitions[i].MaxFrames = 12
		}
		return rs
	}
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"staged", false}, {"compressed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			rs := mkSpec(mode.compress)
			var window int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := stable.NewStore()
				k, err := scram.NewKernel(rs, st)
				if err != nil {
					b.Fatal(err)
				}
				k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: 0})
				f := int64(0)
				for ; f < 20; f++ {
					if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
						b.Fatal(err)
					}
					st.Commit()
					if !k.Reconfiguring() && f > 0 {
						break
					}
				}
				window = f + 1
			}
			b.ReportMetric(float64(window), "frames/window")
		})
	}
}
