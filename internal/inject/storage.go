package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/avionics"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// recoverRing flushes the system's telemetry and recovers the flight-recorder
// ring from the SCRAM host's committed stable storage — the same poll a
// post-mortem reader would perform after a fail-stop halt. A nil slice means
// telemetry was disabled or the SCRAM host (and any standby) was down.
func recoverRing(sys *core.System) []telemetry.Event {
	if err := sys.FlushTelemetry(); err != nil {
		return nil
	}
	snap, err := sys.Pool().PollStable(sys.SCRAMProc())
	if err != nil {
		return nil
	}
	ring, err := telemetry.RecoverRing(snap)
	if err != nil {
		return nil
	}
	return ring
}

// StorageCampaign runs the canonical three-configuration system on hardened
// stable storage backed by deliberately faulty media: torn writes, bit rot
// and stuck reads hit the application processor (p2) while alternator churn
// keeps reconfigurations — and therefore stable-storage traffic — flowing.
// The SCRAM's host (p1) gets fault-free media, matching the paper's
// dependable-SCRAM assumption.
//
// The campaign checks the fail-stop storage contract: every injected fault
// is either repaired transparently from a surviving replica or halts the
// owning processor, and the silent-wrong-data oracle count stays zero.
type StorageCampaign struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Frames is the campaign length.
	Frames int
	// EnvEvents is the number of alternator state changes to script.
	EnvEvents int
	// Replicas is the number of backing media per store (0 defaults to 3).
	Replicas int
	// Faults is the per-medium fault model applied to p2's media.
	Faults stable.FaultProfile
}

// StorageMetrics extends the campaign metrics with the hardened store's
// fault accounting, summed over every processor.
type StorageMetrics struct {
	Metrics
	// Storage sums the stores' fault-handling counters. Its
	// SilentWrongData field must be zero on every run.
	Storage stable.ReplStats
	// Injected sums the faults the media actually injected.
	Injected stable.MediumStats
	// StorageHalts is the number of processors halted by an unrecoverable
	// storage fault.
	StorageHalts int
	// StagedHighWater is the largest per-frame commit batch any processor
	// staged.
	StagedHighWater int
	// Registry is the live telemetry registry's final snapshot: the
	// SCRAM protocol counters and the recovery-latency histograms
	// (reconfiguration window lengths, signal latencies).
	Registry telemetry.Snapshot
	// Ring is the flight-recorder journal recovered from the SCRAM host's
	// committed stable storage after the campaign — the black box a
	// post-mortem reader would poll.
	Ring []telemetry.Event `json:"-"`
}

// Options builds the core.Options the campaign would run, without building
// or running anything. Campaign drivers validate a whole run matrix up
// front by calling Options().Validate() per arm before spending frames.
func (c StorageCampaign) Options() core.Options {
	rng := rand.New(rand.NewSource(c.Seed))
	preset := mustPreset("threeconfig")
	rs := preset.New()

	var script []envmon.Event
	for i := 0; i < c.EnvEvents; i++ {
		f := int64(1 + rng.Intn(max(1, c.Frames-2)))
		alt := envmon.Factor("alt1")
		if rng.Intn(2) == 0 {
			alt = "alt2"
		}
		val := "ok"
		if rng.Intn(2) == 0 {
			val = "failed"
		}
		script = append(script, envmon.Event{Frame: f, Factor: alt, Value: val})
	}

	return core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     preset.Classifier,
		InitialFactors: preset.Factors(),
		Script:         script,
		TraceSeed:      c.Seed,
		HardenedStorage: &stable.MediaProfile{
			Replicas: c.Replicas,
			Seed:     c.Seed,
			Faults:   c.Faults,
			Oracle:   true,
		},
	}
}

// Run executes the campaign and returns its metrics and trace.
func (c StorageCampaign) Run() (StorageMetrics, *trace.Trace, error) {
	opts := c.Options()
	rs := opts.Spec

	sys, err := core.NewSystem(opts)
	if err != nil {
		return StorageMetrics{}, nil, fmt.Errorf("inject: building system: %w", err)
	}
	defer sys.Close()
	if err := sys.Run(c.Frames); err != nil {
		return StorageMetrics{}, nil, fmt.Errorf("inject: running storage campaign: %w", err)
	}

	tr := sys.Trace()
	out := StorageMetrics{
		Metrics:         Collect(tr, rs, int64(rs.DwellFrames)+2),
		StagedHighWater: sys.StagedHighWater(),
		Ring:            recoverRing(sys),
	}
	if reg, _ := sys.Telemetry(); reg != nil {
		out.Registry = reg.Snapshot()
	}
	for _, p := range sys.Pool().Procs() {
		if rep := p.Stable().Hardened(); rep != nil {
			out.Storage.Add(rep.Stats())
			out.Injected.Add(rep.InjectedStats())
		}
		if p.StorageFault() != nil {
			out.StorageHalts++
		}
	}
	return out, tr, nil
}

// BusCampaign flies the section 7 avionics mission over a degraded bus: a
// seeded fault plan drops, duplicates and delays application traffic while
// an alternator failure forces a reconfiguration mid-flight. The campaign
// checks the architecture's separation of concerns under sustained (not just
// total) bus faults: reconfiguration coordination travels through stable
// storage and the direct signal path, so SP1-SP4 must hold at any message
// fault rate.
type BusCampaign struct {
	// Seed drives the fault plan; equal seeds give equal runs.
	Seed int64
	// Frames is the campaign length.
	Frames int
	// Rates is the per-message fault model applied to all topics.
	Rates bus.FaultRates
}

// BusMetrics extends the campaign metrics with the bus's fault accounting
// and the flight outcome.
type BusMetrics struct {
	Metrics
	// Faults counts the message faults the plan injected.
	Faults bus.FaultStats
	// Delivered and Dropped are the bus's totals.
	Delivered, Dropped int64
	// FinalAltFt is the aircraft's altitude when the campaign ends; the
	// flight starts (and holds) 5000 ft.
	FinalAltFt float64
	// Registry is the live telemetry registry's final snapshot, with the
	// recovery-latency histograms.
	Registry telemetry.Snapshot
	// Ring is the flight-recorder journal recovered from the SCRAM host's
	// committed stable storage after the campaign.
	Ring []telemetry.Event `json:"-"`
}

// Run executes the campaign and returns its metrics and trace.
func (c BusCampaign) Run() (BusMetrics, *trace.Trace, error) {
	failFrame := int64(max(2, c.Frames/4))
	sc, err := avionics.NewScenario(avionics.ScenarioOptions{
		Initial: avionics.AircraftState{AltFt: 5000, AirspeedKts: 100},
		Script: []envmon.Event{
			{Frame: failFrame, Factor: avionics.FactorAlt1, Value: avionics.AltFailed},
		},
		DwellFrames: -1,
		TraceSeed:   c.Seed,
	})
	if err != nil {
		return BusMetrics{}, nil, fmt.Errorf("inject: building scenario: %w", err)
	}
	defer sc.Close()

	plan := bus.NewFaultPlan(c.Seed)
	plan.SetDefault(c.Rates)
	sc.Sys.Bus().SetFaultPlan(plan)

	if err := sc.Sys.Run(c.Frames); err != nil {
		return BusMetrics{}, nil, fmt.Errorf("inject: running bus campaign: %w", err)
	}

	tr := sc.Sys.Trace()
	rs := avionics.Spec()
	out := BusMetrics{
		Metrics:    Collect(tr, rs, int64(rs.DwellFrames)+2),
		Faults:     plan.Stats(),
		FinalAltFt: sc.Dyn.State().AltFt,
	}
	out.Delivered, out.Dropped = sc.Sys.Bus().Stats()
	out.Ring = recoverRing(sc.Sys)
	if reg, _ := sc.Sys.Telemetry(); reg != nil {
		out.Registry = reg.Snapshot()
	}
	return out, tr, nil
}
