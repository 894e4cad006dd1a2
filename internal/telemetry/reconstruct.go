package telemetry

import (
	"fmt"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
)

// AppSnap is one application's state within a frame-state sample: the
// live trace's per-application state.
type AppSnap = trace.AppState

// FrameState is the per-frame system-state sample carried by a
// KindFrameState event: the same information the live trace records, so a
// recovered ring reconstructs a sys_trace the SP1-SP4 checkers accept.
type FrameState struct {
	Config spec.ConfigID          `json:"config"`
	Env    spec.EnvState          `json:"env"`
	Apps   map[spec.AppID]AppSnap `json:"apps"`
}

// CaptureState converts a live trace state into a frame-state sample. The
// sample shares st's Apps map: a trace state's map is immutable once the
// state is appended (the recorder already shares one map across unchanged
// frames), so the sample needs no copy of its own.
func CaptureState(st trace.SysState) *FrameState {
	return &FrameState{Config: st.Config, Env: st.Env, Apps: st.Apps}
}

// Equal reports whether two frame-state samples are identical. The recorder
// uses it to run-length-encode the ring: a frame whose state matches the
// previous frame's records no sample at all.
func (f *FrameState) Equal(o *FrameState) bool {
	if o == nil || f.Config != o.Config || f.Env != o.Env || len(f.Apps) != len(o.Apps) {
		return false
	}
	for id, a := range f.Apps {
		if b, ok := o.Apps[id]; !ok || a != b {
			return false
		}
	}
	return true
}

// EqualState reports whether the sample matches a live trace state. The
// frame-commit hook uses it to decide whether a new sample is due without
// allocating a FrameState (and its map) every frame.
func (f *FrameState) EqualState(st trace.SysState) bool {
	if f == nil || f.Config != st.Config || f.Env != st.Env || len(f.Apps) != len(st.Apps) {
		return false
	}
	for id, a := range st.Apps {
		b, ok := f.Apps[id]
		if !ok || b.Status != a.Status || b.Spec != a.Spec || b.PreOK != a.PreOK {
			return false
		}
	}
	return true
}

// ReconstructTrace rebuilds a sys_trace from the frame-state events of a
// (possibly recovered) flight-recorder ring. The ring run-length-encodes
// system state: a sample is recorded only when the state differs from the
// previous frame's (plus one final sample closing the run), so frames
// between two samples repeat the earlier sample's state. Because the ring
// is bounded, the oldest frames may have been evicted: the reconstructed
// trace is rebased so its first surviving sample is cycle 0, and the
// original frame number of cycle 0 is returned as base.
func ReconstructTrace(system string, frameLen time.Duration, events []Event) (*trace.Trace, int64, error) {
	var samples []Event
	for _, e := range events {
		if e.Kind == KindFrameState {
			if e.State == nil {
				return nil, 0, fmt.Errorf("telemetry: frame-state event #%d has no state", e.Seq)
			}
			if n := len(samples); n > 0 && e.Frame <= samples[n-1].Frame {
				return nil, 0, fmt.Errorf("telemetry: frame-state events out of order: event #%d is frame %d after frame %d",
					e.Seq, e.Frame, samples[n-1].Frame)
			}
			samples = append(samples, e)
		}
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("telemetry: no frame-state events in ring")
	}
	base := samples[0].Frame
	last := samples[len(samples)-1].Frame
	tr := &trace.Trace{System: system, FrameLen: frameLen}
	next := 0
	var cur *FrameState
	for f := base; f <= last; f++ {
		for next < len(samples) && samples[next].Frame == f {
			cur = samples[next].State
			next++
		}
		st := trace.SysState{
			Cycle:  f - base,
			Config: cur.Config,
			Env:    cur.Env,
			Apps:   make(map[spec.AppID]trace.AppState, len(cur.Apps)),
		}
		// Keyed inserts with pure values commute: no sort needed.
		for id, a := range cur.Apps {
			st.Apps[id] = a
		}
		if err := tr.Append(st); err != nil {
			return nil, 0, err
		}
	}
	return tr, base, nil
}

// PhaseSpan is one protocol phase's inclusive frame window within a
// reconfiguration. Start -1 means the phase does not occur.
type PhaseSpan struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Frames returns the window length, 0 for an absent phase.
func (p PhaseSpan) Frames() int64 {
	if p.Start < 0 {
		return 0
	}
	return p.End - p.Start + 1
}

// Reconfig is one reconfiguration assembled from the ring's protocol and
// budget events: the Table 1 timeline with per-phase frame budgets.
type Reconfig struct {
	// Seq is the kernel's plan sequence number (the last one, after any
	// retargets or chained follow-ups).
	Seq int64 `json:"seq"`
	// Source and Target are the window's endpoint configurations (the
	// chain source for a fused chained window).
	Source string `json:"source"`
	Target string `json:"target"`
	// TriggerFrame is the frame the window's first plan was triggered in.
	TriggerFrame int64 `json:"trigger_frame"`
	// SignalLatency is the number of frames between the signal that
	// caused the trigger and the trigger itself; -1 when unknown.
	SignalLatency int64 `json:"signal_latency"`
	// Halt, Prepare and Init are the scheduled phase windows of the
	// window's final plan.
	Halt    PhaseSpan `json:"halt"`
	Prepare PhaseSpan `json:"prepare"`
	Init    PhaseSpan `json:"init"`
	// CompleteFrame is the frame the window completed in; -1 while open.
	CompleteFrame int64 `json:"complete_frame"`
	// WindowFrames is the completed window length in frames (trigger
	// through completion, inclusive).
	WindowFrames int64 `json:"window_frames"`
	// BoundFrames is the declared transition bound T(Source, Target) in
	// frames; 0 when undeclared.
	BoundFrames int64 `json:"bound_frames"`
	// MarginFrames is BoundFrames - WindowFrames when the bound is
	// declared.
	MarginFrames int64 `json:"margin_frames"`
	// Retargeted and Chained mark windows that changed target mid-flight
	// or fused with an urgent follow-up plan.
	Retargeted bool `json:"retargeted,omitempty"`
	Chained    bool `json:"chained,omitempty"`
}

// Complete reports whether the reconfiguration finished within the ring.
func (r Reconfig) Complete() bool { return r.CompleteFrame >= 0 }

// Summary aggregates a ring into the flight-recorder report: the
// reconfiguration timeline plus fault-handling tallies.
type Summary struct {
	// Reconfigs is the reconfiguration timeline in trigger order; a
	// final open window has CompleteFrame -1.
	Reconfigs []Reconfig `json:"reconfigs"`
	// Signals, Deferred and Retargets count the corresponding protocol
	// events.
	Signals   int64 `json:"signals"`
	Deferred  int64 `json:"deferred"`
	Retargets int64 `json:"retargets"`
	// StorageRepairs, StorageRescues and StorageUnrecoverable tally the
	// hardened-storage events.
	StorageRepairs       int64 `json:"storage_repairs"`
	StorageRescues       int64 `json:"storage_rescues"`
	StorageUnrecoverable int64 `json:"storage_unrecoverable"`
	// BusFaults counts injected bus-fault actions.
	BusFaults int64 `json:"bus_faults"`
	// ProcHalts lists the fail-stop processor halts observed.
	ProcHalts []Event `json:"proc_halts,omitempty"`
	// Takeovers counts standby SCRAM takeovers.
	Takeovers int64 `json:"takeovers"`
	// FirstFrame and LastFrame delimit the ring's coverage.
	FirstFrame int64 `json:"first_frame"`
	LastFrame  int64 `json:"last_frame"`
	// DroppedEvents is how many events the ring evicted before the
	// oldest surviving one.
	DroppedEvents int64 `json:"dropped_events"`
}

// attr returns a named attribute with a default for absence.
func attr(e Event, key string, def int64) int64 {
	if v, ok := e.Attrs.Get(key); ok {
		return v
	}
	return def
}

// Summarize assembles the flight-recorder report from a ring's events,
// which must be in sequence order (as RecoverRing and Recorder.Events
// return them).
func Summarize(events []Event) Summary {
	s := Summary{FirstFrame: -1, LastFrame: -1}
	var open *Reconfig
	var lastSignalFrame int64 = -1
	for _, e := range events {
		if s.FirstFrame < 0 || e.Frame < s.FirstFrame {
			s.FirstFrame = e.Frame
		}
		if e.Frame > s.LastFrame {
			s.LastFrame = e.Frame
		}
		switch e.Kind {
		case KindSignal:
			s.Signals++
			lastSignalFrame = e.Frame
		case KindDeferred:
			s.Deferred++
		case KindRetarget:
			s.Retargets++
		case KindStorageRepair, KindStorageScrub:
			s.StorageRepairs += attr(e, "repaired", 0)
			s.StorageRescues += attr(e, "rescues", 0)
		case KindStorageRescue:
			s.StorageRescues++
		case KindStorageUnrecoverable:
			s.StorageUnrecoverable++
		case KindBusFault:
			s.BusFaults++
		case KindProcHalt:
			s.ProcHalts = append(s.ProcHalts, e)
		case KindTakeover:
			s.Takeovers++
		case KindBudget:
			switch e.Phase {
			case "schedule":
				chained := attr(e, "chained", 0) != 0
				// A chained or retargeted schedule continues the open
				// window; only a fresh plan opens a new record.
				cont := chained || attr(e, "retargeted", 0) != 0
				if open == nil || !cont {
					if open != nil {
						// A schedule with no completion closes the
						// previous record as best known (ring gap).
						s.Reconfigs = append(s.Reconfigs, *open)
					}
					open = &Reconfig{
						Source:        e.From,
						TriggerFrame:  attr(e, "trigger_frame", e.Frame),
						SignalLatency: -1,
						CompleteFrame: -1,
					}
					if lastSignalFrame >= 0 {
						open.SignalLatency = open.TriggerFrame - lastSignalFrame
					}
				}
				open.Seq = attr(e, "seq", 0)
				open.Target = e.Config
				open.Chained = open.Chained || chained
				open.Retargeted = open.Retargeted || attr(e, "retargeted", 0) != 0
				open.Halt = PhaseSpan{attr(e, "halt_start", -1), attr(e, "halt_end", -1)}
				open.Prepare = PhaseSpan{attr(e, "prep_start", -1), attr(e, "prep_end", -1)}
				open.Init = PhaseSpan{attr(e, "init_start", -1), attr(e, "init_end", -1)}
				open.BoundFrames = attr(e, "bound", 0)
			case "window":
				if open == nil {
					open = &Reconfig{
						Source:        e.From,
						Target:        e.Config,
						TriggerFrame:  attr(e, "start", e.Frame),
						SignalLatency: -1,
						Halt:          PhaseSpan{-1, -1},
						Prepare:       PhaseSpan{-1, -1},
						Init:          PhaseSpan{-1, -1},
					}
				}
				open.Seq = attr(e, "seq", open.Seq)
				open.Target = e.Config
				open.CompleteFrame = e.Frame
				open.WindowFrames = attr(e, "window", e.Frame-open.TriggerFrame+1)
				open.BoundFrames = attr(e, "bound", open.BoundFrames)
				if open.BoundFrames > 0 {
					open.MarginFrames = open.BoundFrames - open.WindowFrames
				}
				if attr(e, "chained", 0) != 0 {
					open.Chained = true
				}
				if attr(e, "retargeted", 0) != 0 {
					open.Retargeted = true
				}
				s.Reconfigs = append(s.Reconfigs, *open)
				open = nil
			}
		}
	}
	if open != nil {
		s.Reconfigs = append(s.Reconfigs, *open)
	}
	if len(events) > 0 {
		s.DroppedEvents = events[0].Seq
	}
	return s
}
