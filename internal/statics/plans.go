package statics

import (
	"fmt"

	"repro/internal/spec"
)

// Slot is one application's schedule within one protocol phase: its start
// offset (0-based frames into the phase) and its duration in frames. Start
// is -1 for an application that does not take part in the phase.
type Slot struct {
	Start, Dur int
}

// PhaseSlots is one protocol phase's schedule for one configuration, as
// PhasePlan computes it: a slot per application, in the specification's
// application order, and the phase's critical-path length.
type PhaseSlots struct {
	Slots  []Slot
	Length int
}

// CompressedSlots is the section 6.3 relaxed schedule of one (source,
// target) pair, as CompressedSchedule computes it: a schedule per
// application, in the specification's application order, and the protocol
// portion's length.
type CompressedSlots struct {
	Apps   []AppSchedule
	Length int
}

type pairKey struct {
	from, to spec.ConfigID
}

// phaseEntry is one (configuration, phase) slot of the table.
type phaseEntry struct {
	PhaseSlots
	err  error
	done bool
}

type compressedEntry struct {
	slots *CompressedSlots
	err   error
}

// Plans is the phase-plan table of one specification. Phase plans are a pure
// function of the static specification, so each (configuration, phase)
// schedule and each compressed (source, target) schedule is computed once,
// on first use, and served from the table afterwards: Check fills the
// entries the timing obligations need, and the SCRAM kernel reuses them on
// every trigger and retarget instead of re-running the longest-path search.
//
// A Plans memoizes in place and is not safe for concurrent use. Like the
// system it belongs to, it has one owner at a time; the entries it hands
// out are shared and must not be modified.
type Plans struct {
	rs *spec.ReconfigSpec
	// phases holds, per configuration in declaration order, its halt,
	// prepare and initialize schedules.
	phases [][3]phaseEntry
	// compressed is made on the first compressed schedule, so a staged
	// specification never allocates it.
	compressed map[pairKey]compressedEntry
	worstPrep  int
	worstErr   error
	worstDone  bool
}

// NewPlans returns an empty phase-plan table for rs.
func NewPlans(rs *spec.ReconfigSpec) *Plans {
	//lint:allow allocfree compiled once: one table per system, built with its static check
	return &Plans{rs: rs, phases: make([][3]phaseEntry, len(rs.Configs))}
}

// config resolves a configuration the table is asked to schedule, with its
// position in the specification.
func (t *Plans) config(id spec.ConfigID) (*spec.Configuration, int, error) {
	for i := range t.rs.Configs {
		if t.rs.Configs[i].ID == id {
			return &t.rs.Configs[i], i, nil
		}
	}
	//lint:allow allocfree error path: an undeclared configuration is a specification defect, reported once per plan request
	return nil, -1, fmt.Errorf("statics: unknown configuration %q", id)
}

// Spec returns the specification the table compiles.
func (t *Plans) Spec() *spec.ReconfigSpec { return t.rs }

// Phase returns the schedule of one protocol phase for a configuration (the
// participants of PhasePlan, as slots in application order).
func (t *Plans) Phase(id spec.ConfigID, phase spec.Phase) (*PhaseSlots, error) {
	cfg, i, err := t.config(id)
	if err != nil {
		return nil, err
	}
	if phase < spec.PhaseHalt || phase > spec.PhaseInit {
		_, _, _, err := PhasePlan(t.rs, cfg, phase) // the phase has no window
		return nil, err
	}
	e := &t.phases[i][phase-spec.PhaseHalt]
	if !e.done {
		e.done = true
		e.err = t.compilePhase(cfg, phase, &e.PhaseSlots)
	}
	if e.err != nil {
		return nil, e.err
	}
	return &e.PhaseSlots, nil
}

func (t *Plans) compilePhase(cfg *spec.Configuration, phase spec.Phase, ps *PhaseSlots) error {
	starts, durations, length, err := PhasePlan(t.rs, cfg, phase)
	if err != nil {
		return err
	}
	//lint:allow allocfree compiled once per (configuration, phase), then served from the table
	ps.Slots, ps.Length = make([]Slot, len(t.rs.Apps)), length
	for i, app := range t.rs.Apps {
		ps.Slots[i] = Slot{Start: -1}
		if off, ok := starts[app.ID]; ok {
			ps.Slots[i] = Slot{Start: off, Dur: durations[app.ID]}
		}
	}
	return nil
}

// Compressed returns the section 6.3 relaxed schedule of the transition
// from -> to (CompressedSchedule, with the schedules in application order).
func (t *Plans) Compressed(from, to spec.ConfigID) (*CompressedSlots, error) {
	key := pairKey{from, to}
	if e, ok := t.compressed[key]; ok {
		return e.slots, e.err
	}
	if t.compressed == nil {
		//lint:allow allocfree compiled once: one map per table, on its first compressed schedule
		t.compressed = make(map[pairKey]compressedEntry)
	}
	var e compressedEntry
	e.slots, e.err = t.compileCompressed(from, to)
	t.compressed[key] = e
	return e.slots, e.err
}

func (t *Plans) compileCompressed(from, to spec.ConfigID) (*CompressedSlots, error) {
	cfgFrom, _, err := t.config(from)
	if err != nil {
		return nil, err
	}
	cfgTo, _, err := t.config(to)
	if err != nil {
		return nil, err
	}
	sched, length, err := CompressedSchedule(t.rs, cfgFrom, cfgTo)
	if err != nil {
		return nil, err
	}
	//lint:allow allocfree compiled once per (source, target), then served from the table
	cs := &CompressedSlots{Apps: make([]AppSchedule, len(t.rs.Apps)), Length: length}
	for i, app := range t.rs.Apps {
		cs.Apps[i] = sched[app.ID]
	}
	return cs, nil
}

// phaseLength returns the critical path of one protocol phase for a
// configuration.
func (t *Plans) phaseLength(cfg spec.ConfigID, phase spec.Phase) (int, error) {
	ps, err := t.Phase(cfg, phase)
	if err != nil {
		return 0, err
	}
	return ps.Length, nil
}

// worstPrepareWindow is the most expensive prepare phase over all
// configurations: the cost of one abandoned mid-window target.
func (t *Plans) worstPrepareWindow() (int, error) {
	if !t.worstDone {
		t.worstDone = true
		for i := range t.rs.Configs {
			w, err := t.phaseLength(t.rs.Configs[i].ID, spec.PhasePrepare)
			if err != nil {
				t.worstPrep, t.worstErr = 0, err
				break
			}
			if w > t.worstPrep {
				t.worstPrep = w
			}
		}
	}
	return t.worstPrep, t.worstErr
}

// RequiredWindow is the table-backed RequiredWindow: it serves every phase
// and compressed schedule it needs from the table.
func (t *Plans) RequiredWindow(from, to spec.ConfigID) (int, error) {
	var window int
	if t.rs.Compression {
		// Section 6.3 relaxation: per-application phase chaining.
		cs, err := t.Compressed(from, to)
		if err != nil {
			return 0, err
		}
		window = 1 + cs.Length
	} else {
		halt, err := t.phaseLength(from, spec.PhaseHalt)
		if err != nil {
			return 0, err
		}
		prep, err := t.phaseLength(to, spec.PhasePrepare)
		if err != nil {
			return 0, err
		}
		ini, err := t.phaseLength(to, spec.PhaseInit)
		if err != nil {
			return 0, err
		}
		window = 1 + halt + prep + ini
	}
	if t.rs.Retarget == spec.RetargetImmediate {
		extra, err := t.worstPrepareWindow()
		if err != nil {
			return 0, err
		}
		window += extra
	}
	return window, nil
}
