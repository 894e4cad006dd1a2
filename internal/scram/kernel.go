package scram

import (
	"fmt"
	"math"

	"repro/internal/envmon"
	"repro/internal/frame"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// EventKind classifies a protocol log entry.
type EventKind string

// Protocol event kinds, in the vocabulary of the paper's Table 1.
const (
	// EventSignal records a component-failure or environment-change
	// signal reaching the kernel.
	EventSignal EventKind = "signal"
	// EventTrigger records the decision to reconfigure (Table 1 frame 0).
	EventTrigger EventKind = "trigger"
	// EventHalt records the halt command taking effect (frame 1).
	EventHalt EventKind = "halt"
	// EventPrepare records the prepare(Ct) command (frame 2).
	EventPrepare EventKind = "prepare"
	// EventInitialize records the initialize command (frame 3).
	EventInitialize EventKind = "initialize"
	// EventComplete records the end of the reconfiguration.
	EventComplete EventKind = "complete"
	// EventRetarget records a mid-window target change (immediate
	// policy).
	EventRetarget EventKind = "retarget"
	// EventDeferred records a trigger deferred by the dwell guard.
	EventDeferred EventKind = "deferred"
)

// Event is one protocol log entry; the sequence of events for a single
// reconfiguration renders the paper's Table 1.
type Event struct {
	Frame  int64         `json:"frame"`
	Kind   EventKind     `json:"kind"`
	Config spec.ConfigID `json:"config,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("f%-4d %-10s", e.Frame, e.Kind)
	if e.Config != "" {
		s += " " + string(e.Config)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// kernelState is the kernel's persistent state, committed to stable storage
// every frame so a standby kernel can take over after a fail-stop failure of
// the primary's processor.
type kernelState struct {
	Current    spec.ConfigID `json:"current"`
	Env        spec.EnvState `json:"env"`
	Seq        int64         `json:"seq"`
	LastEnd    int64         `json:"last_end"`
	LastSource spec.AppID    `json:"last_source,omitempty"`
	TriggerApp spec.AppID    `json:"trigger_app,omitempty"`
	Urgent     bool          `json:"urgent,omitempty"`
	Plan       *plan         `json:"plan,omitempty"`
	// Epoch is the membership epoch the kernel serves under; zero when the
	// system runs with the static processor set. It rides in the persisted
	// state so a takeover restores the last committed epoch, and it stamps
	// every command so applications can discard stale pre-takeover ones.
	Epoch int64 `json:"epoch,omitempty"`
}

// Kernel is the SCRAM kernel. Create one with NewKernel; drive it by calling
// EndOfFrame from a frame-commit hook that runs before the stable-storage
// commits (so commands written during frame k are committed at k's boundary
// and visible to applications in frame k+1).
type Kernel struct {
	rs    *spec.ReconfigSpec
	store *stable.Store

	signals []envmon.Signal

	st     kernelState
	events []Event
	// retain is the protocol log's horizon in frames (SetRetention); zero
	// keeps the whole log.
	retain int64
	// dirty marks that st changed since the last persist. The kernel's state
	// is a pure function of signals and plan progress, both rare; on quiet
	// frames the committed record is already current and persist skips the
	// re-encode. Set at every st mutation site; true at construction so the
	// first frame (and the first frame after a takeover onto a fresh store)
	// always persists.
	dirty bool
	// lastCmds caches the command most recently staged (and, by the frame
	// structure, committed) per application on this kernel's store, so an
	// unchanged command — every frame of normal operation — is not re-encoded
	// and re-staged. A fresh kernel (boot or takeover) starts empty and
	// writes everything once.
	lastCmds map[spec.AppID]Command

	// tel and met mirror the protocol log into the flight recorder and
	// the metrics registry. Both are always non-nil: until SetTelemetry
	// attaches the system's, tel is the no-op sink and met counts into a
	// private registry nobody reads — selected once at construction, so
	// the protocol paths carry no per-event nil checks.
	tel telemetry.Sink
	met *kernelMetrics
	// lastSignal is the frame of the most recent signal, feeding the
	// signal-to-trigger latency histogram; -1 before any signal.
	lastSignal int64
	// book allocates the causal-trace spans; nil-receiver safe, so the
	// untraced kernel pays only a nil check per protocol decision (and
	// nothing at all on quiet frames). pendSpans holds the signal spans
	// awaiting the kernel's decision — preallocated so the steady path
	// never grows it; spans stay pending across dwell deferrals.
	book      *telemetry.SpanBook
	pendSpans []int64
}

// kernelMetrics holds the kernel's pre-resolved metric handles.
type kernelMetrics struct {
	signals, triggers, deferred, retargets, completes, chained *telemetry.Counter
	windowFrames, signalLatency                                *telemetry.Histogram
}

// resolveKernelMetrics binds the kernel's metric handles in reg.
func resolveKernelMetrics(reg *telemetry.Registry) *kernelMetrics {
	return &kernelMetrics{
		signals:       reg.Counter("scram/signals"),
		triggers:      reg.Counter("scram/triggers"),
		deferred:      reg.Counter("scram/deferred"),
		retargets:     reg.Counter("scram/retargets"),
		completes:     reg.Counter("scram/completes"),
		chained:       reg.Counter("scram/chained"),
		windowFrames:  reg.Histogram("scram/window_frames"),
		signalLatency: reg.Histogram("scram/signal_latency_frames"),
	}
}

// SetTelemetry attaches the kernel to a metrics registry and flight
// recorder: every protocol log entry is mirrored as a flight-recorder
// event, and plan starts/completions additionally record their Table 1
// phase windows and budget margins. A nil recorder or registry leaves the
// corresponding no-op attachment in place.
func (k *Kernel) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	k.tel = telemetry.OrNop(rec)
	if reg != nil {
		k.met = resolveKernelMetrics(reg)
	}
}

// SetTracing attaches the system's span book. The kernel opens the
// reconfiguration trace at trigger, tracks one span per protocol phase,
// records chain/retarget causality, and closes the trace when the fused
// window completes. A nil book leaves tracing off.
func (k *Kernel) SetTracing(book *telemetry.SpanBook) {
	k.book = book
	if book != nil && k.pendSpans == nil {
		k.pendSpans = make([]int64, 0, 8)
	}
}

// NewKernel returns a kernel for the given specification, persisting its
// state and the application command variables in store (the stable storage
// of the processor hosting the SCRAM).
func NewKernel(rs *spec.ReconfigSpec, store *stable.Store) (*Kernel, error) {
	if _, ok := rs.Config(rs.StartConfig); !ok {
		return nil, fmt.Errorf("scram: start configuration %q not declared", rs.StartConfig)
	}
	return &Kernel{
		rs:         rs,
		store:      store,
		lastSignal: -1,
		tel:        telemetry.NopSink{},
		met:        resolveKernelMetrics(telemetry.NewRegistry()),
		dirty:      true,
		lastCmds:   make(map[spec.AppID]Command, len(rs.Apps)),
		st: kernelState{
			Current: rs.StartConfig,
			Env:     rs.StartEnv,
			LastEnd: math.MinInt64 / 2,
		},
	}, nil
}

// Restore returns a kernel whose state is loaded from a stable-storage
// snapshot of a (possibly failed) kernel's processor — the takeover path of
// a replicated SCRAM. The snapshot must contain a persisted kernel state.
func Restore(rs *spec.ReconfigSpec, store *stable.Store, snapshot map[string][]byte) (*Kernel, error) {
	k, err := NewKernel(rs, store)
	if err != nil {
		return nil, err
	}
	raw, ok := snapshot[stateKey]
	if !ok {
		return nil, fmt.Errorf("scram: snapshot holds no kernel state under %q", stateKey)
	}
	if err := unmarshalState(raw, &k.st); err != nil {
		return nil, err
	}
	// Every configuration_status record present in the snapshot must decode:
	// commanding applications from a corrupt record would violate fail-stop
	// semantics, so the takeover is refused instead.
	for _, a := range rs.Apps {
		if raw, ok := snapshot[commandKey(a.ID)]; ok {
			if err := validateCommandRecord(a.ID, raw); err != nil {
				return nil, err
			}
		}
	}
	return k, nil
}

// Store returns the stable store the kernel writes commands to.
func (k *Kernel) Store() *stable.Store { return k.store }

// Epoch returns the membership epoch the kernel is serving under; zero with
// the static processor set.
func (k *Kernel) Epoch() int64 { return k.st.Epoch }

// SetEpoch moves the kernel to a membership epoch. The membership layer
// calls it before EndOfFrame, so the frame's commands and persisted state
// both carry the frame's epoch. Epochs are monotone: a smaller value is
// ignored (a restored kernel may briefly hold a newer epoch than a lagging
// caller).
func (k *Kernel) SetEpoch(epoch int64) {
	if epoch > k.st.Epoch {
		k.st.Epoch = epoch
		k.dirty = true
	}
}

// Current returns the configuration in effect (the target configuration is
// not "current" until the reconfiguration completes).
func (k *Kernel) Current() spec.ConfigID { return k.st.Current }

// Env returns the kernel's latest view of the environment state.
func (k *Kernel) Env() spec.EnvState { return k.st.Env }

// Reconfiguring reports whether a reconfiguration plan is in progress.
func (k *Kernel) Reconfiguring() bool { return k.st.Plan != nil }

// PlanTarget returns the in-progress plan's target configuration and its
// sequence number; ok is false when no plan is active.
func (k *Kernel) PlanTarget() (target spec.ConfigID, seq int64, ok bool) {
	if k.st.Plan == nil {
		return "", 0, false
	}
	return k.st.Plan.Target, k.st.Plan.Seq, true
}

// SetRetention bounds the in-memory protocol log to a sliding window of
// frames, the system's history horizon (core.Options.RetainFrames): once
// the oldest entry is more than two windows old, the log drops back to the
// last window. Zero (the default) keeps the whole log. Like the flight
// recorder's horizon it is configuration, not persisted state, so a kernel
// restored on takeover must be given it again.
func (k *Kernel) SetRetention(frames int64) { k.retain = frames }

// Events returns a copy of the protocol event log: the whole log, or under
// a retention horizon at least the entries of the last window.
func (k *Kernel) Events() []Event {
	out := make([]Event, len(k.events))
	copy(out, k.events)
	return out
}

// Signal delivers a component-failure or environment-change signal to the
// kernel. Per Figure 1 of the paper, signals travel on a direct path (not
// through stable storage). The kernel processes all signals of frame k
// during k's commit step.
func (k *Kernel) Signal(sig envmon.Signal) {
	k.signals = append(k.signals, sig)
}

// EndOfFrame advances the kernel by one frame: it drains the frame's
// signals, starts, advances, retargets, or completes the reconfiguration
// plan, and writes every application's command for the next frame. It is
// also where the protocol log's retention horizon advances, so the log is
// bounded on quiet frames too.
func (k *Kernel) EndOfFrame(ctx frame.Context) error {
	f := ctx.Frame
	k.trimLog(f)
	for _, sig := range k.drainSignals() {
		k.st.Env = sig.State
		k.st.LastSource = sig.Source
		if sig.Urgent {
			k.st.Urgent = true
		}
		k.lastSignal = f
		k.dirty = true
		k.logf(f, EventSignal, "", "%s reports %s", sig.Source, sig.State)
		if sig.Span != 0 {
			k.pendSpans = append(k.pendSpans, sig.Span)
		}
	}

	if k.st.Plan == nil {
		if err := k.maybeTrigger(f); err != nil {
			return err
		}
	} else {
		if err := k.advancePlan(f); err != nil {
			return err
		}
	}
	if err := k.writeCommands(f); err != nil {
		return err
	}
	return k.persist()
}

// maybeTrigger starts a reconfiguration if the choice table demands one for
// the current environment and the dwell guard allows it. An urgent
// (hardware-fault) signal bypasses the dwell guard: dwell damps environment
// churn, but a processor loss has already broken the current configuration
// and deferring the response would extend the outage unboundedly.
func (k *Kernel) maybeTrigger(f int64) error {
	target, ok := k.rs.Choice.Choose(k.st.Current, k.st.Env)
	if !ok || target == k.st.Current {
		if k.st.Urgent {
			k.st.Urgent = false
			k.dirty = true
		}
		// The choice function demands nothing: the pending signal spans
		// close traceless — observed, judged, no reconfiguration.
		k.closePendingSpans(f, "no reconfiguration required")
		return nil
	}
	if dwell := int64(k.rs.DwellFrames); f-k.st.LastEnd < dwell && !k.st.Urgent {
		k.logf(f, EventDeferred, target, "dwell guard: %d of %d frames since last reconfiguration",
			f-k.st.LastEnd, dwell)
		return nil
	}
	k.st.Urgent = false
	k.st.Seq++
	k.dirty = true
	p, err := buildPlan(k.rs, k.st.Seq, k.st.Current, target, f)
	if err != nil {
		return err
	}
	return k.startPlan(f, p)
}

// startPlan installs a built plan and logs its Table 1 schedule.
func (k *Kernel) startPlan(f int64, p *plan) error {
	target := p.Target
	k.st.Plan = p
	k.st.TriggerApp = k.st.LastSource
	k.dirty = true
	k.logf(f, EventTrigger, target, "%s -> %s, window [%d,%d]", p.Source, p.Target, p.TriggerFrame, p.InitEnd)
	k.logf(f, EventHalt, target, "halt commanded for frames [%d,%d]", p.HaltStart, p.HaltEnd)
	k.logf(f, EventPrepare, target, "prepare(%s) scheduled for frames [%d,%d]", target, p.PrepStart, p.PrepEnd)
	k.logf(f, EventInitialize, target, "initialize scheduled for frames [%d,%d]", p.InitStart, p.InitEnd)
	k.recordSchedule(f, p)
	k.openTraceSpans(f, p)
	if !p.Chained && k.lastSignal >= 0 {
		k.met.signalLatency.Observe(p.TriggerFrame - k.lastSignal)
	}
	return nil
}

// openTraceSpans records the causal-trace structure of a plan start: an
// unchained plan opens the reconfiguration trace (rooted at the trigger,
// derived from the opening signal's frame); a chained plan pushes a chain
// span instead, keeping the fused window's trace open so the follow-up's
// phases parent to the chain — the chained-urgent causal link. Either way
// the pending signal spans close into the trace, and an instantaneous
// decision span records the choice the kernel just made.
func (k *Kernel) openTraceSpans(f int64, p *plan) {
	if !k.book.Enabled() {
		return
	}
	if p.Chained {
		k.book.OpenChain(f, telemetry.Event{
			From:   string(p.Source),
			Config: string(p.Target),
			Attrs:  map[string]int64{"seq": p.Seq},
		})
	} else {
		sigFrame := k.lastSignal
		if sigFrame < 0 {
			sigFrame = f
		}
		attrs := map[string]int64{"seq": p.Seq}
		if bound, ok := k.rs.T(p.ChainSource, p.Target); ok {
			attrs["bound"] = int64(bound)
		}
		k.book.OpenTrace(f, sigFrame, telemetry.Event{
			From:   string(p.ChainSource),
			Config: string(p.Target),
			Attrs:  attrs,
		})
	}
	k.closePendingSpans(f, "")
	k.book.Mark(f, telemetry.SpanDecision, telemetry.Event{
		From:   string(p.Source),
		Config: string(p.Target),
		Attrs:  map[string]int64{"seq": p.Seq},
	})
}

// closePendingSpans closes every signal span awaiting a decision. Inside an
// open trace they are adopted as children of the current parent; outside
// they close traceless. No-op (and allocation-free) when nothing pends.
func (k *Kernel) closePendingSpans(f int64, detail string) {
	if len(k.pendSpans) == 0 {
		return
	}
	for _, id := range k.pendSpans {
		k.book.ClosePending(f, id, telemetry.Event{Detail: detail})
	}
	k.pendSpans = k.pendSpans[:0]
}

// advancePlan handles retargeting and completion of the in-progress plan.
func (k *Kernel) advancePlan(f int64) error {
	p := k.st.Plan
	// Immediate retargeting: permitted once per window, and only while
	// initialization has not begun (after that, new triggers buffer).
	// Retargeting back to the plan's source is allowed and yields a
	// self-transition window, which is why the immediate policy carries
	// the self-transition-bound static obligation.
	if k.rs.Retarget == spec.RetargetImmediate && !p.Retargeted && f+1 <= p.InitStart {
		if newTarget, ok := k.rs.Choice.Choose(p.Source, k.st.Env); ok && newTarget != p.Target {
			k.st.Seq++
			k.dirty = true
			if err := p.retarget(k.rs, newTarget, k.st.Seq, f); err != nil {
				return err
			}
			k.logf(f, EventRetarget, newTarget, "window extended to [%d,%d]", p.TriggerFrame, p.InitEnd)
			k.recordSchedule(f, p)
			if k.book.Enabled() {
				k.book.Mark(f, telemetry.SpanRetarget, telemetry.Event{
					From:   string(p.Source),
					Config: string(p.Target),
					Attrs:  map[string]int64{"seq": p.Seq},
				})
			}
		}
	}
	k.advanceSpans(f, p)
	if f == p.InitEnd {
		k.st.Current = p.Target
		k.st.LastEnd = f
		k.st.Plan = nil
		k.st.TriggerApp = ""
		k.dirty = true
		k.logf(f, EventComplete, p.Target, "window [%d,%d], %d frames",
			p.TriggerFrame, p.InitEnd, p.InitEnd-p.TriggerFrame+1)
		err := k.maybeChain(f, p)
		// The budget-window event closes the fused chain window, so it is
		// recorded only when no chained follow-up plan kept it open.
		if k.st.Plan == nil {
			k.recordWindow(f, p)
		}
		return err
	}
	return nil
}

// advanceSpans maintains the causal trace's per-phase span: one span per
// protocol phase of the plan, opened at the phase's first frame and closed
// at its last (a retarget that moves a boundary under the open span closes
// it at the last frame it was accurate for and reopens). All state lives in
// the plan itself, so a takeover's restored plan resumes exactly where the
// snapshot's span bookkeeping left off.
func (k *Kernel) advanceSpans(f int64, p *plan) {
	if !k.book.Enabled() {
		return
	}
	cur := p.phaseAt(f)
	if cur == spec.PhaseNormal {
		return
	}
	name := spanPhaseName(cur)
	if p.SpanPhase != 0 && p.SpanPhaseName != name {
		k.book.CloseSpan(f-1, p.SpanPhase, p.SpanPhaseName, telemetry.Event{Config: string(p.Target)})
		p.SpanPhase = 0
	}
	if p.SpanPhase == 0 {
		p.SpanPhase = k.book.OpenSpan(f, name, telemetry.Event{Config: string(p.Target)})
		p.SpanPhaseName = name
	}
	if f == p.InitEnd || p.phaseAt(f+1) != cur {
		k.book.CloseSpan(f, p.SpanPhase, name, telemetry.Event{Config: string(p.Target)})
		p.SpanPhase, p.SpanPhaseName = 0, ""
	}
}

// spanPhaseName maps a protocol phase to its span name.
func spanPhaseName(ph spec.Phase) string {
	switch ph {
	case spec.PhaseHalt:
		return telemetry.SpanHalt
	case spec.PhasePrepare:
		return telemetry.SpanPrepare
	default:
		return telemetry.SpanInit
	}
}

// maybeChain handles an urgent (hardware-fault) signal that arrived too
// late in the window for retargeting: the plan just completed into a
// configuration the choice function already rejects — typically because a
// processor the target places applications on failed mid-window. Resting
// there is impossible (the lost applications can never report normal), so
// the kernel chains straight into the follow-up transition in the same
// frame, with no intervening cycle of normal operation. In the trace the
// two transitions fuse into one reconfiguration window running from the
// original source to the final target; chaining therefore requires that
// composite pair to be declared with a bound the fused window fits — for a
// window that returns to its own source, that is the self-transition bound
// the retargeting machinery also relies on. An undeclared or overrun
// composite falls back to completing normally (the follow-up then runs as
// an ordinary buffered trigger next frame).
func (k *Kernel) maybeChain(f int64, p *plan) error {
	if !k.st.Urgent {
		return nil
	}
	newTarget, ok := k.rs.Choice.Choose(p.Target, k.st.Env)
	if !ok || newTarget == p.Target {
		return nil
	}
	np, err := buildPlan(k.rs, k.st.Seq+1, p.Target, newTarget, f)
	if err != nil {
		return nil // undeclared follow-up transition: buffer instead
	}
	bound, declared := k.rs.T(p.ChainSource, newTarget)
	if !declared || np.InitEnd-p.ChainStart+1 > int64(bound) {
		return nil
	}
	k.st.Urgent = false
	k.st.Seq++
	k.dirty = true
	np.Chained = true
	np.ChainStart = p.ChainStart
	np.ChainSource = p.ChainSource
	k.met.chained.Inc()
	return k.startPlan(f, np)
}

// writeCommands stages every application's command for frame f+1.
func (k *Kernel) writeCommands(f int64) error {
	p := k.st.Plan
	for _, app := range k.rs.Apps {
		if app.Virtual {
			continue // monitors are not commanded
		}
		var cmd Command
		if p == nil {
			cfg, _ := k.rs.Config(k.st.Current)
			target, _ := cfg.SpecOf(app.ID)
			cmd = Command{Seq: k.st.Seq, Phase: spec.PhaseNormal, Target: target, Config: k.st.Current, Epoch: k.st.Epoch}
		} else {
			// Per-application phase selection: the command names the
			// phase the application is in (or awaiting) at f+1, with
			// its own action window. Outside the window the runtime
			// holds, so a command naming a future phase is inert
			// until the window opens. This covers both the staged
			// protocol and the compressed (section 6.3) one.
			aw := p.Apps[app.ID]
			cmd = Command{Seq: p.Seq, Config: p.Target, Target: aw.Target, Epoch: k.st.Epoch}
			g := f + 1
			switch {
			case aw.HaltStart >= 0 && g <= aw.HaltEnd:
				cmd.Phase = spec.PhaseHalt
				cmd.WinStart, cmd.WinEnd = aw.HaltStart, aw.HaltEnd
			case aw.PrepStart >= 0 && g <= aw.PrepEnd:
				cmd.Phase = spec.PhasePrepare
				cmd.WinStart, cmd.WinEnd = aw.PrepStart, aw.PrepEnd
			case g <= p.InitEnd:
				cmd.Phase = spec.PhaseInit
				cmd.WinStart, cmd.WinEnd = aw.InitStart, aw.InitEnd
			default:
				// f+1 is past the plan window only when the plan
				// completed this frame, which clears Plan before
				// writeCommands runs; a plan still present here
				// is a scheduling bug.
				return fmt.Errorf("scram: plan %d has no phase for frame %d", p.Seq, f+1)
			}
		}
		// An unchanged command is already the committed value of the
		// application's configuration_status variable — re-staging the
		// identical bytes would only burn an encode per application per
		// frame. A change in any field (phase, window, seq, epoch) forces
		// the write through.
		if prev, ok := k.lastCmds[app.ID]; ok && prev == cmd {
			continue
		}
		if err := WriteCommand(k.store, app.ID, cmd); err != nil {
			return err
		}
		k.lastCmds[app.ID] = cmd
	}
	return nil
}

// StatusOf returns the reconfiguration status (reconf_st) the kernel
// attributes to app at the given frame. The trace recorder calls it after
// EndOfFrame for the same frame.
func (k *Kernel) StatusOf(app spec.AppID, frameNum int64) trace.ReconfStatus {
	p := k.st.Plan
	if p == nil {
		return trace.StatusNormal
	}
	// The trigger frame of an ordinary window is the last frame of normal
	// operation: only the application attributed with the failure shows
	// interrupted. A chained plan's trigger frame is mid-window (the frame
	// its predecessor completed in), so every application is already in
	// the protocol and reports its phase status instead.
	if frameNum == p.TriggerFrame && !p.Chained {
		if app == k.st.TriggerApp {
			return trace.StatusInterrupted
		}
		return trace.StatusNormal
	}
	aw, ok := p.Apps[app]
	if !ok {
		return trace.StatusHalted
	}
	// Per-application status: an application is halting until its own halt
	// window completes, halted while awaiting its prepare, preparing and
	// prepared around its prepare window, and initializing from its init
	// window until the plan's global completion (the release barrier).
	switch {
	case aw.HaltStart >= 0 && frameNum < aw.HaltEnd:
		return trace.StatusHalting
	case aw.HaltStart >= 0 && frameNum == aw.HaltEnd:
		return trace.StatusHalted
	case aw.PrepStart >= 0 && frameNum < aw.PrepStart:
		return trace.StatusHalted
	case aw.PrepStart >= 0 && frameNum < aw.PrepEnd:
		return trace.StatusPreparing
	case aw.PrepStart >= 0 && frameNum == aw.PrepEnd:
		return trace.StatusPrepared
	case aw.InitStart >= 0 && frameNum < aw.InitStart:
		return trace.StatusPrepared
	case aw.InitStart >= 0:
		return trace.StatusInitializing
	default:
		return trace.StatusHalted // off in the target configuration
	}
}

// SpecOf returns the functional specification attributed to app at the
// current point: its target during a reconfiguration, its current
// assignment otherwise.
func (k *Kernel) SpecOf(app spec.AppID) spec.SpecID {
	if p := k.st.Plan; p != nil {
		if aw, ok := p.Apps[app]; ok {
			return aw.Target
		}
	}
	if cfg, ok := k.rs.Config(k.st.Current); ok {
		if s, ok := cfg.SpecOf(app); ok {
			return s
		}
	}
	return spec.SpecOff
}

func (k *Kernel) drainSignals() []envmon.Signal {
	out := k.signals
	k.signals = nil
	return out
}

// trimLog applies the retention horizon at frame f. Compacting in place
// once the oldest entry is two windows old, back to one window, amortizes
// the copy to O(1) per logged event and reuses the log's backing array —
// the rule the system trace's retention trim follows.
func (k *Kernel) trimLog(f int64) {
	if k.retain <= 0 || len(k.events) == 0 || k.events[0].Frame >= f-2*k.retain {
		return
	}
	i := 0
	for i < len(k.events) && k.events[i].Frame < f-k.retain {
		i++
	}
	n := copy(k.events, k.events[i:])
	clear(k.events[n:])
	k.events = k.events[:n]
}

func (k *Kernel) logf(f int64, kind EventKind, cfg spec.ConfigID, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	k.events = append(k.events, Event{
		Frame:  f,
		Kind:   kind,
		Config: cfg,
		Detail: detail,
	})
	k.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.Kind(kind),
		Config: string(cfg),
		Detail: detail,
	})
	switch kind {
	case EventSignal:
		k.met.signals.Inc()
	case EventTrigger:
		k.met.triggers.Inc()
	case EventDeferred:
		k.met.deferred.Inc()
	case EventRetarget:
		k.met.retargets.Inc()
	case EventComplete:
		k.met.completes.Inc()
	}
}

// recordSchedule emits the plan's Table 1 phase windows as a budget event:
// the scheduled halt/prepare/initialize frame ranges plus the declared
// transition bound the window must fit, keyed to the fused chain window so
// a summary reassembles chained plans into one reconfiguration.
func (k *Kernel) recordSchedule(f int64, p *plan) {
	if !k.tel.Enabled() {
		return
	}
	attrs := map[string]int64{
		"seq":           p.Seq,
		"trigger_frame": p.ChainStart,
		"halt_start":    p.HaltStart,
		"halt_end":      p.HaltEnd,
		"prep_start":    p.PrepStart,
		"prep_end":      p.PrepEnd,
		"init_start":    p.InitStart,
		"init_end":      p.InitEnd,
	}
	if p.Chained {
		attrs["chained"] = 1
	}
	if p.Retargeted {
		attrs["retargeted"] = 1
	}
	if bound, ok := k.rs.T(p.ChainSource, p.Target); ok {
		attrs["bound"] = int64(bound)
	}
	k.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.KindBudget,
		Phase:  "schedule",
		Config: string(p.Target),
		From:   string(p.ChainSource),
		Attrs:  attrs,
	})
}

// recordWindow emits the completed reconfiguration's budget consumption:
// the realized window length against the declared bound, with the margin
// left over. It also feeds the window and signal-latency histograms.
func (k *Kernel) recordWindow(f int64, p *plan) {
	window := f - p.ChainStart + 1
	k.met.windowFrames.Observe(window)
	if !k.tel.Enabled() {
		return
	}
	attrs := map[string]int64{
		"seq":    p.Seq,
		"start":  p.ChainStart,
		"end":    f,
		"window": window,
	}
	if bound, ok := k.rs.T(p.ChainSource, p.Target); ok {
		attrs["bound"] = int64(bound)
		attrs["margin"] = int64(bound) - window
	}
	if p.Chained {
		attrs["chained"] = 1
	}
	if p.Retargeted {
		attrs["retargeted"] = 1
	}
	k.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.KindBudget,
		Phase:  "window",
		Config: string(p.Target),
		From:   string(p.ChainSource),
		Attrs:  attrs,
	})
	if k.book.Enabled() {
		// The fused window is over: close the reconfiguration trace. The
		// root's end event carries the realized window against its bound
		// (a fresh attribute map — recorded events keep theirs).
		closeAttrs := make(map[string]int64, len(attrs))
		for key, v := range attrs {
			closeAttrs[key] = v
		}
		k.book.CloseTrace(f, telemetry.Event{
			From:   string(p.ChainSource),
			Config: string(p.Target),
			Attrs:  closeAttrs,
		})
	}
}

func (k *Kernel) persist() error {
	if !k.dirty {
		return nil
	}
	if err := k.store.PutJSON(stateKey, k.st); err != nil {
		return fmt.Errorf("scram: persisting kernel state: %w", err)
	}
	k.dirty = false
	return nil
}
