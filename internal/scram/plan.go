package scram

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/statics"
)

// appWindows is one application's schedule within a reconfiguration plan:
// the inclusive frame ranges in which it actively executes each phase. A
// start of -1 means the application does not participate in that phase (it
// is off in the relevant configuration) and merely holds.
type appWindows struct {
	HaltStart, HaltEnd int64
	PrepStart, PrepEnd int64
	InitStart, InitEnd int64
	Target             spec.SpecID
}

// plan is one scheduled reconfiguration: the realization of Table 1 for a
// specific (source, target) pair, with per-application phase windows derived
// from the same dependency-aware critical-path analysis the static timing
// obligation uses.
type plan struct {
	Seq          int64
	Source       spec.ConfigID
	Target       spec.ConfigID
	TriggerFrame int64
	HaltStart    int64
	HaltEnd      int64
	PrepStart    int64
	PrepEnd      int64
	InitStart    int64
	InitEnd      int64
	// Apps holds one window set per application of the specification, in
	// declaration order.
	Apps       []appWindows
	Retargeted bool
	// Chained marks a plan started in the same frame its predecessor
	// completed in (the urgent chain-through path): its trigger frame is
	// mid-window, not a frame of normal operation.
	Chained bool
	// ChainStart and ChainSource identify the fused trace window a chain
	// of plans forms: the trigger frame and source configuration of the
	// first plan in the chain. For an unchained plan they equal
	// TriggerFrame and Source.
	ChainStart  int64
	ChainSource spec.ConfigID
	// SpanPhase and SpanPhaseName track the open phase span of the causal
	// trace layer. They ride in the persisted plan so a takeover's restored
	// plan keeps closing the phase span its snapshot captured open; both
	// are zero outside an active phase span.
	SpanPhase     int64
	SpanPhaseName string
}

// buildPlan schedules a reconfiguration triggered at triggerFrame from
// source to target, serving the phase schedules from the specification's
// plan table. Frame triggerFrame+1 begins the halt phase, matching Table 1's
// frame numbering (frame 0 carries only the failure signal).
func buildPlan(plans *statics.Plans, seq int64, source, target spec.ConfigID, triggerFrame int64) (*plan, error) {
	rs := plans.Spec()
	if _, ok := rs.Config(source); !ok {
		return nil, fmt.Errorf("scram: unknown source configuration %q", source)
	}
	tgtCfg, ok := rs.Config(target)
	if !ok {
		return nil, fmt.Errorf("scram: unknown target configuration %q", target)
	}

	p := &plan{
		Seq:          seq,
		Source:       source,
		Target:       target,
		TriggerFrame: triggerFrame,
		HaltStart:    triggerFrame + 1,
		Apps:         make([]appWindows, len(rs.Apps)),
		ChainStart:   triggerFrame,
		ChainSource:  source,
	}
	for i := range rs.Apps {
		aw := appWindows{
			HaltStart: -1, HaltEnd: -1,
			PrepStart: -1, PrepEnd: -1,
			InitStart: -1, InitEnd: -1,
			Target: spec.SpecOff,
		}
		if rs.Apps[i].Virtual {
			// Virtual applications are not reconfigured (section
			// 6.3); they follow the protocol only in recorded
			// status.
			aw.Target = rs.Apps[i].Specs[0].ID
		}
		p.Apps[i] = aw
	}

	if rs.Compression {
		if err := p.scheduleCompressed(plans, tgtCfg); err != nil {
			return nil, err
		}
		return p, nil
	}

	halt, err := plans.Phase(source, spec.PhaseHalt)
	if err != nil {
		return nil, fmt.Errorf("scram: halt plan: %w", err)
	}
	p.HaltEnd = triggerFrame + int64(halt.Length)
	for i, sl := range halt.Slots {
		if sl.Start >= 0 {
			aw := &p.Apps[i]
			aw.HaltStart = p.HaltStart + int64(sl.Start)
			aw.HaltEnd = aw.HaltStart + int64(sl.Dur) - 1
		}
	}
	if err := p.scheduleEntry(plans, tgtCfg, p.HaltEnd+1); err != nil {
		return nil, err
	}
	return p, nil
}

// scheduleCompressed fills the plan from the section 6.3 relaxed schedule of
// (p.Source, p.Target): per-application phase chaining with no global
// barriers. The global boundary fields are set to the envelope of the
// per-application windows (InitStart is the earliest initialize start, which
// gates retargeting).
func (p *plan) scheduleCompressed(plans *statics.Plans, tgtCfg *spec.Configuration) error {
	rs := plans.Spec()
	cs, err := plans.Compressed(p.Source, p.Target)
	if err != nil {
		return fmt.Errorf("scram: compressed plan: %w", err)
	}
	base := p.TriggerFrame + 1
	p.HaltEnd, p.PrepEnd = p.TriggerFrame, p.TriggerFrame
	p.InitStart = base + int64(cs.Length) // lowered below by participants
	p.InitEnd = p.TriggerFrame + int64(cs.Length)
	p.PrepStart = p.InitEnd // informational only under compression
	for i := range p.Apps {
		aw, s := &p.Apps[i], cs.Apps[i]
		if !rs.Apps[i].Virtual {
			if t, ok := tgtCfg.SpecOf(rs.Apps[i].ID); ok {
				aw.Target = t
			} else {
				aw.Target = spec.SpecOff
			}
		}
		aw.HaltStart, aw.HaltEnd = window(base, s.HaltStart, s.HaltEnd)
		aw.PrepStart, aw.PrepEnd = window(base, s.PrepStart, s.PrepEnd)
		aw.InitStart, aw.InitEnd = window(base, s.InitStart, s.InitEnd)
		if aw.HaltEnd > p.HaltEnd {
			p.HaltEnd = aw.HaltEnd
		}
		if aw.PrepEnd > p.PrepEnd {
			p.PrepEnd = aw.PrepEnd
		}
		if aw.InitStart >= 0 && aw.InitStart < p.InitStart {
			p.InitStart = aw.InitStart
		}
	}
	if p.PrepStart < p.InitStart {
		p.PrepStart = p.HaltEnd + 1
	}
	return nil
}

// window places a schedule's inclusive offset range at base; a start of -1
// (no participation) stays -1.
func window(base int64, start, end int) (int64, int64) {
	if start < 0 {
		return -1, -1
	}
	return base + int64(start), base + int64(end)
}

// scheduleEntry (re)schedules the prepare and initialize phases for the
// plan's target configuration, with the prepare phase starting at
// prepStart. It is used both at plan construction and at retargeting.
func (p *plan) scheduleEntry(plans *statics.Plans, tgtCfg *spec.Configuration, prepStart int64) error {
	rs := plans.Spec()
	prep, err := plans.Phase(tgtCfg.ID, spec.PhasePrepare)
	if err != nil {
		return fmt.Errorf("scram: prepare plan: %w", err)
	}
	ini, err := plans.Phase(tgtCfg.ID, spec.PhaseInit)
	if err != nil {
		return fmt.Errorf("scram: init plan: %w", err)
	}
	p.PrepStart = prepStart
	p.PrepEnd = prepStart + int64(prep.Length) - 1
	p.InitStart = p.PrepEnd + 1
	p.InitEnd = p.PrepEnd + int64(ini.Length)

	for i := range p.Apps {
		aw := &p.Apps[i]
		aw.PrepStart, aw.PrepEnd = -1, -1
		aw.InitStart, aw.InitEnd = -1, -1
		if !rs.Apps[i].Virtual {
			if t, ok := tgtCfg.SpecOf(rs.Apps[i].ID); ok {
				aw.Target = t
			} else {
				aw.Target = spec.SpecOff
			}
		}
		if sl := prep.Slots[i]; sl.Start >= 0 {
			aw.PrepStart = p.PrepStart + int64(sl.Start)
			aw.PrepEnd = aw.PrepStart + int64(sl.Dur) - 1
		}
		if sl := ini.Slots[i]; sl.Start >= 0 {
			aw.InitStart = p.InitStart + int64(sl.Start)
			aw.InitEnd = aw.InitStart + int64(sl.Dur) - 1
		}
	}
	return nil
}

// retarget reschedules the plan toward a new target configuration. It may
// only be called while initialization has not begun; the prepare phase
// restarts at frameNow+1 (or after the halt phase completes, whichever is
// later). Under compression the whole relaxed entry schedule is rebuilt and
// shifted so no prepare begins before frameNow+1.
func (p *plan) retarget(plans *statics.Plans, newTarget spec.ConfigID, seq, frameNow int64) error {
	rs := plans.Spec()
	tgtCfg, ok := rs.Config(newTarget)
	if !ok {
		return fmt.Errorf("scram: unknown retarget configuration %q", newTarget)
	}
	p.Target = newTarget
	p.Seq = seq
	p.Retargeted = true
	if rs.Compression {
		// Rebuild the relaxed schedule for the new target and uniformly
		// shift the entry windows so none starts before frameNow+1. The
		// halt windows come out as the already-executed ones: the halt
		// schedule depends only on the source configuration and the
		// trigger frame, which a retarget keeps.
		if err := p.scheduleCompressed(plans, tgtCfg); err != nil {
			return err
		}
		var shift int64
		for i := range p.Apps {
			if aw := &p.Apps[i]; aw.PrepStart >= 0 && frameNow+1-aw.PrepStart > shift {
				shift = frameNow + 1 - aw.PrepStart
			}
		}
		for i := range p.Apps {
			aw := &p.Apps[i]
			if aw.PrepStart >= 0 {
				aw.PrepStart += shift
				aw.PrepEnd += shift
			}
			if aw.InitStart >= 0 {
				aw.InitStart += shift
				aw.InitEnd += shift
			}
		}
		p.PrepEnd += shift
		p.InitStart += shift
		p.InitEnd += shift
		return nil
	}
	prepStart := frameNow + 1
	if min := p.HaltEnd + 1; prepStart < min {
		prepStart = min
	}
	return p.scheduleEntry(plans, tgtCfg, prepStart)
}

// phaseAt returns the protocol phase in effect at the given frame.
func (p *plan) phaseAt(frameNum int64) spec.Phase {
	switch {
	case frameNum <= p.TriggerFrame:
		return spec.PhaseNormal
	case frameNum <= p.HaltEnd:
		return spec.PhaseHalt
	case frameNum <= p.PrepEnd:
		return spec.PhasePrepare
	default:
		return spec.PhaseInit
	}
}
