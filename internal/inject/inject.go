// Package inject drives fault-injection campaigns against reconfigurable
// systems and collects the metrics the experiments report: reconfiguration
// counts and window lengths, service-restriction totals, worst restriction
// chains (the measured counterpart of the section 5.3 bounds), and SP1-SP4
// property violations.
//
// Campaigns come in two flavors. CanonicalCampaign exercises the paper's
// avionics-shaped three-configuration system with randomized alternator and
// processor events. RandomCampaign generates an arbitrary valid
// specification (spectest.Random), instantiates it with reference
// applications, and flaps the environment randomly — the workload behind the
// Table 2 reproduction: whatever valid system and whatever failure sequence,
// the four properties must hold.
package inject

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/trace"
)

// Metrics summarizes one campaign run.
type Metrics struct {
	// Frames is the campaign length.
	Frames int64
	// Reconfigs is the number of completed reconfigurations.
	Reconfigs int
	// WindowMax is the longest single reconfiguration window, in frames.
	WindowMax int64
	// WindowTotal sums all reconfiguration windows.
	WindowTotal int64
	// RestrictionFrames counts frames with restricted service (identical
	// to WindowTotal for completed windows, plus any open window).
	RestrictionFrames int64
	// ChainMax is the worst restriction chain: the largest summed window
	// length over maximal runs of reconfigurations separated by at most
	// ChainGap frames of normal service. It is the measured counterpart
	// of the section 5.3 Σ T(i-1, i) bound.
	ChainMax int64
	// ChainGap is the gap threshold used for ChainMax.
	ChainGap int64
	// Violations holds every SP1-SP4 violation found in the trace.
	Violations []trace.Violation
	// OpenWindow reports that the trace ended mid-reconfiguration.
	OpenWindow bool
}

// Collect computes campaign metrics from a trace. chainGap is the maximum
// number of normal frames between two reconfigurations that still count as
// the same failure chain (the dwell time plus scheduling slack is the usual
// choice).
func Collect(tr *trace.Trace, rs *spec.ReconfigSpec, chainGap int64) Metrics {
	m := Metrics{
		Frames:   tr.Len(),
		ChainGap: chainGap,
	}
	rcs := tr.Reconfigs()
	m.Reconfigs = len(rcs)
	var chain int64
	var lastEnd int64 = -1 << 62
	for _, r := range rcs {
		w := r.Frames()
		m.WindowTotal += w
		if w > m.WindowMax {
			m.WindowMax = w
		}
		if r.StartC-lastEnd <= chainGap+1 {
			chain += w
		} else {
			chain = w
		}
		if chain > m.ChainMax {
			m.ChainMax = chain
		}
		lastEnd = r.EndC
	}
	m.RestrictionFrames = tr.RestrictionFrames()
	m.Violations = trace.CheckAll(tr, rs)
	_, m.OpenWindow = tr.OpenReconfig()
	return m
}

// CanonicalCampaign configures a randomized run of the canonical
// three-configuration avionics-shaped system.
type CanonicalCampaign struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Frames is the campaign length.
	Frames int
	// EnvEvents is the number of alternator state changes to script.
	EnvEvents int
	// ProcFailures is the number of p2 fail/repair pairs to script (p2
	// hosts the FCS in full service; p1 hosts the SCRAM and is spared).
	ProcFailures int
	// Standby enables the replicated SCRAM on p2.
	Standby bool
	// Dwell overrides the specification's dwell frames (negative keeps
	// the default).
	Dwell int
}

// Run executes the campaign and returns its metrics and trace.
func (c CanonicalCampaign) Run() (Metrics, *trace.Trace, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	preset, err := spectest.Lookup("threeconfig")
	if err != nil {
		return Metrics{}, nil, err
	}
	rs := preset.New()
	if c.Dwell >= 0 {
		rs.DwellFrames = c.Dwell
		if rs.DwellFrames == 0 {
			rs.DwellFrames = 1 // the transition graph has cycles; keep the guard
		}
	}

	// Script: alternator flapping at random frames.
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

	// Processor events: fail/repair pairs on p2.
	var procEvents []core.ProcEvent
	for i := 0; i < c.ProcFailures; i++ {
		f := int64(1 + rng.Intn(max(1, c.Frames-20)))
		procEvents = append(procEvents,
			core.ProcEvent{Frame: f, Proc: "p2", Kind: core.ProcFail},
			core.ProcEvent{Frame: f + int64(10+rng.Intn(10)), Proc: "p2", Kind: core.ProcRepair},
		)
	}

	opts := core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     preset.Classifier,
		InitialFactors: preset.Factors(),
		Script:         script,
		ProcEvents:     procEvents,
	}
	if c.Standby {
		opts.StandbyProc = "p2"
	}
	return runCampaign(opts, c.Frames, int64(rs.DwellFrames))
}

// RandomCampaign configures a run of a randomly generated specification.
type RandomCampaign struct {
	// Seed drives both the specification generator and the environment
	// script.
	Seed int64
	// Frames is the campaign length.
	Frames int
	// Apps, Configs, Envs size the generated specification.
	Apps, Configs, Envs int
	// EnvEvents is the number of scripted environment changes.
	EnvEvents int
	// Compressed enables the section 6.3 relaxed protocol (per-app phase
	// chaining); transition bounds are resized for it.
	Compressed bool
}

// envFactor is the single factor random campaigns flap; the classifier maps
// it straight to the specification's environment state.
const envFactor envmon.Factor = "env"

// Run generates the specification, instantiates it with reference
// applications, and executes the campaign.
func (c RandomCampaign) Run() (Metrics, *trace.Trace, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	rs := spectest.Random(rng, c.Apps, c.Configs, c.Envs)
	if c.Compressed {
		rs.Compression = true
		if err := spectest.SizeTransitions(rs, rng); err != nil {
			return Metrics{}, nil, fmt.Errorf("inject: resizing for compression: %w", err)
		}
	}

	var script []envmon.Event
	for i := 0; i < c.EnvEvents; i++ {
		script = append(script, envmon.Event{
			Frame:  int64(1 + rng.Intn(max(1, c.Frames-2))),
			Factor: envFactor,
			Value:  string(rs.Envs[rng.Intn(len(rs.Envs))]),
		})
	}
	opts := core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     func(f map[envmon.Factor]string) spec.EnvState { return spec.EnvState(f[envFactor]) },
		InitialFactors: map[envmon.Factor]string{envFactor: string(rs.StartEnv)},
		Script:         script,
	}
	return runCampaign(opts, c.Frames, int64(rs.DwellFrames))
}

// mustPreset resolves a registry preset that is known to exist; the registry
// is static, so a miss is a programming error.
func mustPreset(name string) spectest.Preset {
	p, err := spectest.Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// runCampaign builds the system, runs it, and collects metrics.
func runCampaign(opts core.Options, frames int, dwell int64) (Metrics, *trace.Trace, error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return Metrics{}, nil, fmt.Errorf("inject: building system: %w", err)
	}
	defer sys.Close()
	if err := sys.Run(frames); err != nil {
		return Metrics{}, nil, fmt.Errorf("inject: running campaign: %w", err)
	}
	tr := sys.Trace()
	return Collect(tr, opts.Spec, dwell+2), tr, nil
}

// ExhaustiveResult summarizes a bounded-exhaustive verification run.
type ExhaustiveResult struct {
	// Runs is the number of environment sequences executed: |Envs|^changes.
	Runs int
	// Reconfigs is the total reconfigurations across all runs.
	Reconfigs int
	// Violations holds every property violation found, annotated with the
	// offending sequence in the Detail field.
	Violations []trace.Violation
}

// Exhaustive performs bounded-exhaustive verification of a specification:
// it enumerates EVERY sequence of `changes` environment states (spaced
// `spacing` frames apart) and runs the full system against each, checking
// SP1-SP4 over every trace. Where the randomized campaigns sample the
// behaviour space, Exhaustive covers it completely up to the bound — the
// executable counterpart of proving the properties over all traces of the
// abstract model.
//
// The number of runs is |rs.Envs|^changes; keep changes small.
func Exhaustive(rs *spec.ReconfigSpec, changes, spacing int) (ExhaustiveResult, error) {
	var res ExhaustiveResult
	seq := make([]spec.EnvState, changes)
	frames := spacing * (changes + 2)

	var enumerate func(pos int) error
	enumerate = func(pos int) error {
		if pos == changes {
			res.Runs++
			var script []envmon.Event
			for i, e := range seq {
				script = append(script, envmon.Event{
					Frame:  int64(spacing * (i + 1)),
					Factor: envFactor,
					Value:  string(e),
				})
			}
			opts := core.Options{
				Spec:           rs,
				Apps:           core.BasicApps(rs),
				Classifier:     func(f map[envmon.Factor]string) spec.EnvState { return spec.EnvState(f[envFactor]) },
				InitialFactors: map[envmon.Factor]string{envFactor: string(rs.StartEnv)},
				Script:         script,
			}
			m, _, err := runCampaign(opts, frames, int64(rs.DwellFrames)+2)
			if err != nil {
				return fmt.Errorf("inject: sequence %v: %w", seq, err)
			}
			res.Reconfigs += m.Reconfigs
			for _, v := range m.Violations {
				v.Detail = fmt.Sprintf("%s [sequence %v]", v.Detail, seq)
				res.Violations = append(res.Violations, v)
			}
			return nil
		}
		for _, e := range rs.Envs {
			seq[pos] = e
			if err := enumerate(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := enumerate(0); err != nil {
		return res, err
	}
	return res, nil
}
