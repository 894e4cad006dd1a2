package core

import (
	"fmt"

	"repro/internal/envmon"
	"repro/internal/failstop"
	"repro/internal/frame"
	"repro/internal/membership"
	"repro/internal/scram"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/statics"
	"repro/internal/telemetry"
)

// scramManager hosts the SCRAM kernel on a fail-stop processor and,
// optionally, fails over to a standby processor. The paper leaves the
// SCRAM's dependable implementation open ("allocating it to a fail-stop
// processor so that any faults in its hardware will be masked", or
// distribution over several processors); this manager realizes the
// fail-stop-plus-standby variant: the kernel persists its state to its
// processor's stable storage every frame, and on a primary failure the
// standby polls that stable storage — which survives the failure — restores
// the state, and continues the protocol on its own processor.
//
// The manager also buffers monitor signals: signals are delivered to the
// manager (the signal path of Figure 1) and forwarded to the active kernel
// at the commit step, so signals raised during the takeover frame are not
// lost with the primary's volatile memory.
type scramManager struct {
	rs      *spec.ReconfigSpec
	plans   *statics.Plans
	primary *failstop.Processor
	standby *failstop.Processor // nil when not replicated
	// retain is the system's history horizon (Options.RetainFrames),
	// applied to every kernel the manager builds or restores.
	retain int64

	pending []envmon.Signal

	active       *scram.Kernel
	activeProc   *failstop.Processor
	tookOver     bool
	takeoverAt   int64
	takeoverSeen bool

	// pool and mem are set when dynamic membership is enabled: the
	// takeover candidates then come from the membership view's caught-up
	// standbys instead of the single configured standby, and every
	// takeover opens a new membership epoch.
	pool *failstop.Pool
	mem  *membership.Manager

	// telReg and telRec are re-attached to the restored kernel on
	// takeover; nil when telemetry is disabled. telSink is the always
	// non-nil recording surface the takeover path itself uses — the no-op
	// sink until setTelemetry, so the hook carries no nil checks.
	telReg  *telemetry.Registry
	telRec  *telemetry.Recorder
	telSink telemetry.Sink
	// attrs is the scratch signal spans' attributes are built in.
	attrs telemetry.Attrs

	// book is the system's span book (nil with tracing off). The manager
	// opens the signal-detection span at the frame-commit delivery point —
	// the spot where a monitor's report becomes part of the frame's
	// commit-ordered history — and re-attaches the book to the restored
	// kernel on takeover.
	book *telemetry.SpanBook
}

// newSCRAMManager builds the manager with a fresh kernel on the primary,
// its protocol log bounded to retain frames (zero keeps everything). Every
// kernel the manager builds or restores serves its plans from plans, the
// phase-plan table of the system's static check.
func newSCRAMManager(rs *spec.ReconfigSpec, plans *statics.Plans, primary, standby *failstop.Processor, retain int64) (*scramManager, error) {
	k, err := scram.NewKernel(rs, primary.Stable())
	if err != nil {
		return nil, err
	}
	k.SetRetention(retain)
	k.SetPlans(plans)
	return &scramManager{
		rs:         rs,
		plans:      plans,
		primary:    primary,
		standby:    standby,
		retain:     retain,
		active:     k,
		activeProc: primary,
		telSink:    telemetry.NopSink{},
	}, nil
}

// setTelemetry attaches the telemetry layer to the manager and its active
// kernel. Called once during system construction, before any frame runs.
func (m *scramManager) setTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	m.telReg = reg
	m.telRec = rec
	m.telSink = telemetry.OrNop(rec)
	m.active.SetTelemetry(reg, rec)
}

// setTracing attaches the span book to the manager and its active kernel.
// Called once during system construction, before any frame runs.
func (m *scramManager) setTracing(book *telemetry.SpanBook) {
	m.book = book
	m.active.SetTracing(book)
}

// Signal enqueues a monitor signal for delivery at the commit step.
func (m *scramManager) Signal(sig envmon.Signal) {
	m.pending = append(m.pending, sig)
}

// store returns the active kernel's stable store — where applications read
// their commands.
func (m *scramManager) store() *stable.Store { return m.active.Store() }

// kernel returns the active kernel.
func (m *scramManager) kernel() *scram.Kernel { return m.active }

// hook is the manager's frame-commit step: fail over if needed, deliver the
// frame's signals, and advance the kernel.
func (m *scramManager) hook(ctx frame.Context) error {
	if !m.activeProc.Alive() {
		if !m.takeover(ctx) {
			// The SCRAM is gone. No commands are written; a
			// reconfiguration in progress stalls, which the SP3
			// checker surfaces. This is precisely why the paper
			// requires a dependable SCRAM implementation.
			return nil
		}
	}
	for _, sig := range m.pending {
		if m.book.Enabled() {
			// The detection span opens here — delivery, not the monitor's
			// Tick — so span identities are allocated at one fixed point
			// of the frame's commit step.
			m.attrs = m.attrs[:0].With("observed_frame", sig.Frame)
			if sig.Urgent {
				m.attrs = m.attrs.With("urgent", 1)
			}
			sig.Span = m.book.OpenPending(ctx.Frame, telemetry.SpanSignal, telemetry.Event{
				App:    string(sig.Source),
				Detail: string(sig.State),
				Attrs:  m.attrs,
			})
		}
		m.active.Signal(sig)
	}
	clear(m.pending)
	m.pending = m.pending[:0]
	if m.mem != nil {
		// The frame's membership epoch (the membership hook ran just
		// before this one) stamps the frame's commands and persisted
		// kernel state.
		m.active.SetEpoch(m.mem.Epoch())
	}
	return m.active.EndOfFrame(ctx)
}

// candidates returns the processors eligible to restore the failed kernel,
// in preference order. With dynamic membership the pool is the view's
// caught-up standbys (the configured standby first, then by processor ID);
// with the static set it is the single configured standby, at most once.
func (m *scramManager) candidates() []*failstop.Processor {
	if m.mem != nil {
		ids := m.mem.TakeoverCandidates()
		out := make([]*failstop.Processor, 0, len(ids))
		if m.standby != nil {
			for _, id := range ids {
				if id == m.standby.ID() {
					out = append(out, m.standby)
					break
				}
			}
		}
		for _, id := range ids {
			if m.standby != nil && id == m.standby.ID() {
				continue
			}
			if p, err := m.pool.Proc(id); err == nil {
				out = append(out, p)
			}
		}
		return out
	}
	if m.standby == nil || m.tookOver || !m.standby.Alive() {
		return nil
	}
	return []*failstop.Processor{m.standby}
}

// takeover tries to restore the kernel on a standby after the active host's
// fail-stop failure, returning whether any candidate succeeded.
//
// A candidate whose restore fails validation — the failed host's snapshot
// holds a corrupt kernel state or command record, and (with membership) the
// candidate's own catch-up copy is no better — must not command applications
// from garbage: it fail-stops itself with a recorded telemetry event, and
// the next candidate is tried. A half-restored kernel never escapes this
// method, and a validation failure is not an error the frame aborts on — the
// system degrades exactly as if no standby existed.
func (m *scramManager) takeover(ctx frame.Context) bool {
	failed := m.activeProc
	snapshot := failed.Stable().Snapshot()
	for _, cand := range m.candidates() {
		k, err := scram.Restore(m.rs, cand.Stable(), snapshot)
		if err != nil && m.mem != nil {
			// The failed host's snapshot is unusable; fall back to the
			// candidate's catch-up copy, which trails it by at most one
			// frame.
			if local := m.mem.CatchUpSnapshot(cand.ID()); local != nil {
				k2, err2 := scram.Restore(m.rs, cand.Stable(), local)
				if err2 == nil {
					k, err = k2, nil
				} else {
					err = fmt.Errorf("%w (catch-up copy: %v)", err, err2)
				}
			}
		}
		if err != nil {
			m.telSink.Record(telemetry.Event{
				Frame:  ctx.Frame,
				Kind:   telemetry.KindTakeoverRefused,
				Host:   string(cand.ID()),
				Detail: fmt.Sprintf("takeover from failed %s refused: %v", failed.ID(), err),
			})
			cand.Fail(ctx.Frame)
			continue
		}
		k.SetRetention(m.retain)
		k.SetPlans(m.plans)
		m.active = k
		m.activeProc = cand
		m.tookOver = true
		m.takeoverAt = ctx.Frame
		m.takeoverSeen = true
		// The new host's stable storage has never held the journal: reset
		// the persistence markers so the next persist rewrites the full
		// ring, then keep recording on the restored kernel. With telemetry
		// disabled every call lands on the no-op sink.
		m.telSink.ResetPersistence()
		m.active.SetTelemetry(m.telReg, m.telRec)
		// The span book lives with the system, not the failed kernel: the
		// restored kernel keeps allocating from the same deterministic
		// counters, so the trace it resumes is the one the primary opened.
		m.active.SetTracing(m.book)
		if m.mem != nil {
			m.mem.OnTakeover(ctx.Frame, cand.ID())
		}
		m.telSink.Record(telemetry.Event{
			Frame: ctx.Frame,
			Kind:  telemetry.KindTakeover,
			Host:  string(cand.ID()),
			Detail: fmt.Sprintf("standby %s restored SCRAM state from failed %s",
				cand.ID(), failed.ID()),
		})
		return true
	}
	return false
}

// TookOverAt reports whether (and at which frame) a standby takeover
// happened.
func (m *scramManager) TookOverAt() (int64, bool) {
	return m.takeoverAt, m.takeoverSeen
}
