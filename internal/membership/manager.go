package membership

import (
	"fmt"
	"sort"

	"repro/internal/det"
	"repro/internal/failstop"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/telemetry"
)

// scramPrefix is the stable-storage namespace of the SCRAM kernel: the state
// a joining processor must copy before it can take the kernel over.
const scramPrefix = "scram/"

// defaultCatchUpFrames is the catch-up duration when Config leaves it zero.
const defaultCatchUpFrames = 3

// Op selects a scheduled membership operation.
type Op string

const (
	// OpJoin adds a processor to the member set as a joining standby.
	OpJoin Op = "join"
	// OpLeave drains a processor gracefully: the removal is re-verified
	// against the extended transition table and rejected if the remaining
	// members cannot discharge the static obligations.
	OpLeave Op = "leave"
)

// Event schedules one membership operation.
type Event struct {
	Frame int64       `json:"frame"`
	Proc  spec.ProcID `json:"proc"`
	Op    Op          `json:"op"`
}

// Rejection records a membership change that failed online re-verification
// (or named an undeclared processor) and was refused; the prior epoch kept
// serving.
type Rejection struct {
	Frame  int64       `json:"frame"`
	Proc   spec.ProcID `json:"proc"`
	Op     Op          `json:"op"`
	Reason string      `json:"reason"`
}

// Stats are the manager's cumulative counters.
type Stats struct {
	Joins     int `json:"joins"`
	Leaves    int `json:"leaves"`
	Rejected  int `json:"rejected"`
	Evictions int `json:"evictions"`
	Converges int `json:"converges"`
}

// Config configures NewManager.
type Config struct {
	// Spec is the full reconfiguration specification; its platform declares
	// every processor that may ever be a member (spares included).
	Spec *spec.ReconfigSpec
	// Pool is the system's processor pool.
	Pool *failstop.Pool
	// Auth is the processor hosting the SCRAM kernel at boot.
	Auth spec.ProcID
	// Events schedules join and leave operations.
	Events []Event
	// CatchUpFrames is the number of catch-up copy frames before a joining
	// processor is promoted to a takeover-eligible standby (0 selects the
	// default of 3).
	CatchUpFrames int
	// Required lists processors that may never leave: the SCRAM's hosts.
	Required []spec.ProcID
}

// managerMetrics holds the manager's pre-resolved metric handles.
type managerMetrics struct {
	joins, leaves, rejected, evictions, converges *telemetry.Counter
	epoch, members                                *telemetry.Gauge
}

func resolveManagerMetrics(reg *telemetry.Registry) *managerMetrics {
	return &managerMetrics{
		joins:     reg.Counter("membership/joins"),
		leaves:    reg.Counter("membership/leaves"),
		rejected:  reg.Counter("membership/rejected"),
		evictions: reg.Counter("membership/evictions"),
		converges: reg.Counter("membership/converges"),
		epoch:     reg.Gauge("membership/epoch"),
		members:   reg.Gauge("membership/members"),
	}
}

// Manager maintains the frame-synchronous membership view. It is driven from
// the frame-commit hook chain: Step before the SCRAM manager's hook (so a
// takeover in the same frame sees the updated candidate set and the kernel
// stamps the frame's epoch into its commands), Finish after it and before
// the stable-storage commits (so the frame's record commits at the frame's
// own boundary).
type Manager struct {
	rs            *spec.ReconfigSpec
	pool          *failstop.Pool
	events        []Event
	catchUpFrames int
	required      map[spec.ProcID]bool

	view View
	// epochHint is the monotonicity floor: the largest epoch ever observed,
	// surviving convergence from records claiming arbitrary epochs. Bumps go
	// to max(view.Epoch, epochHint)+1, so the committed epoch sequence is
	// strictly increasing no matter what garbage a corrupt record carried.
	epochHint int64
	dirty     bool

	stats    Stats
	rejected []Rejection
	log      []FrameRecord
	tel      telemetry.Sink
	met      *managerMetrics
	// book marks epoch changes in the causal trace layer (nil-safe): an
	// epoch bump inside an open reconfiguration trace joins it as a child
	// span; one in quiet operation stands alone as a single-span trace.
	book *telemetry.SpanBook
	// epochAttrs is the scratch the epoch span's attributes are built in.
	epochAttrs telemetry.Attrs
	keyScratch []string
	// recBuf, recView and recEnc are the committed-record scratch: the
	// per-frame read of the record, the view it decodes into in place, and
	// the encoding buffer a changed view is staged from.
	recBuf  []byte
	recView View
	recEnc  []byte
	// ownerScratch is the sorted-key scratch for the per-frame Finish
	// record; reused so steady frames stage the membership log without a
	// sort allocation.
	ownerScratch []spec.AppID
}

// NewManager builds the manager with an epoch-1 view: every processor any
// configuration places applications on, plus the required SCRAM hosts. The
// initial member set must itself verify, like any later one.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Spec == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("membership: Spec and Pool are required")
	}
	catchUp := cfg.CatchUpFrames
	if catchUp <= 0 {
		catchUp = defaultCatchUpFrames
	}
	m := &Manager{
		rs:            cfg.Spec,
		pool:          cfg.Pool,
		events:        append([]Event(nil), cfg.Events...),
		catchUpFrames: catchUp,
		required:      make(map[spec.ProcID]bool, len(cfg.Required)+1),
		tel:           telemetry.NopSink{},
		met:           resolveManagerMetrics(telemetry.NewRegistry()),
	}
	sort.SliceStable(m.events, func(i, j int) bool { return m.events[i].Frame < m.events[j].Frame })
	m.required[cfg.Auth] = true
	for _, id := range cfg.Required {
		m.required[id] = true
	}

	initial := make(map[spec.ProcID]bool, len(cfg.Spec.Platform.Procs))
	for _, c := range cfg.Spec.Configs {
		for _, p := range c.PlacedProcs() {
			initial[p] = true
		}
	}
	for _, id := range det.SortedKeys(m.required) {
		initial[id] = true
	}
	members := make([]Member, 0, len(initial))
	for _, id := range det.SortedKeys(initial) {
		if _, ok := cfg.Spec.Platform.Proc(id); !ok {
			return nil, fmt.Errorf("membership: initial member %q is not on the platform", id)
		}
		members = append(members, Member{Proc: id, Status: StatusActive, CaughtUp: true})
	}
	m.view = View{Epoch: 1, Auth: cfg.Auth, Members: members}
	if m.view.Member(cfg.Auth) == nil {
		return nil, fmt.Errorf("membership: authoritative host %q is not a member", cfg.Auth)
	}
	if err := Verify(m.rs, m.memberIDs(nil)); err != nil {
		return nil, err
	}
	m.epochHint = m.view.Epoch
	m.dirty = true
	return m, nil
}

// SetTelemetry attaches the manager to the system's metrics registry and
// flight recorder; nil arguments leave the no-op attachments in place.
func (m *Manager) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	m.tel = telemetry.OrNop(rec)
	if reg != nil {
		m.met = resolveManagerMetrics(reg)
	}
	m.met.epoch.Set(m.view.Epoch)
	m.met.members.Set(int64(len(m.view.Members)))
}

// SetTracing attaches the system's span book; nil leaves tracing off.
func (m *Manager) SetTracing(book *telemetry.SpanBook) { m.book = book }

// Epoch returns the current membership epoch.
func (m *Manager) Epoch() int64 { return m.view.Epoch }

// View returns a copy of the current membership view.
func (m *Manager) View() View { return m.view.Clone() }

// Stats returns the cumulative membership counters.
func (m *Manager) Stats() Stats { return m.stats }

// Rejections returns the refused membership changes, in frame order.
func (m *Manager) Rejections() []Rejection {
	return append([]Rejection(nil), m.rejected...)
}

// Log returns the per-frame membership log the invariant checkers consume.
func (m *Manager) Log() []FrameRecord { return m.log }

// memberIDs appends the current member processors (plus extra) to a nil
// slice, sorted — the shape Verify consumes.
func (m *Manager) memberIDs(extra []spec.ProcID) []spec.ProcID {
	ids := make([]spec.ProcID, 0, len(m.view.Members)+len(extra))
	for _, mem := range m.view.Members {
		ids = append(ids, mem.Proc)
	}
	ids = append(ids, extra...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// memberIDsWithout returns the member processors minus one, sorted.
func (m *Manager) memberIDsWithout(drop spec.ProcID) []spec.ProcID {
	ids := make([]spec.ProcID, 0, len(m.view.Members))
	for _, mem := range m.view.Members {
		if mem.Proc != drop {
			ids = append(ids, mem.Proc)
		}
	}
	return ids
}

// Step advances the membership layer by one frame, before the SCRAM
// manager's own hook: it validates the committed membership record
// (self-stabilization), reconciles member statuses with the processor pool
// (crash eviction and repair re-join), applies the frame's scheduled join
// and leave events under online re-verification, runs the catch-up copies,
// and — if anything changed — moves the view to a strictly larger epoch.
// st is the active kernel's stable store (still the failed primary's during
// a takeover frame; stable storage survives fail-stop halts and stays
// readable).
func (m *Manager) Step(f int64, st *stable.Store) {
	changed := false
	authAlive := m.procAlive(m.view.Auth)

	// Self-stabilization: the committed record must decode, checksum, and
	// agree with the authoritative frame-synchronous view. Any defect —
	// torn bytes, an epoch from the future, members the platform never
	// declared, plain divergence — drives a re-commit of the legal view
	// under a strictly larger epoch at this frame's boundary.
	if authAlive {
		var ok bool
		if m.recBuf, ok = st.GetInto(m.recBuf, RecordKey); ok {
			if reason := m.recordDefect(m.recBuf); reason != "" {
				m.stats.Converges++
				m.met.converges.Inc()
				m.tel.Record(telemetry.Event{
					Frame:  f,
					Kind:   telemetry.KindMembershipConverge,
					Host:   string(m.view.Auth),
					Detail: reason,
				})
				changed = true
			}
		}
	}

	// Crash eviction and repair re-join, from the pool's actual state.
	for i := range m.view.Members {
		mem := &m.view.Members[i]
		p, err := m.pool.Proc(mem.Proc)
		if err != nil {
			continue
		}
		failed := p.State() == failstop.StateFailed
		switch {
		case failed && mem.Status != StatusDown:
			mem.Status, mem.CaughtUp, mem.CatchUp = StatusDown, false, 0
			m.stats.Evictions++
			m.met.evictions.Inc()
			m.tel.Record(telemetry.Event{
				Frame:  f,
				Kind:   telemetry.KindMemberEvict,
				Host:   string(mem.Proc),
				Detail: "crash-detected eviction",
			})
			changed = true
		case !failed && mem.Status == StatusDown:
			mem.Status, mem.CatchUp = StatusJoining, 0
			m.tel.Record(telemetry.Event{
				Frame:  f,
				Kind:   telemetry.KindMemberJoin,
				Host:   string(mem.Proc),
				Detail: "repaired; re-joining through catch-up",
			})
			changed = true
		}
	}

	// Scheduled joins and leaves.
	for _, ev := range m.events {
		if ev.Frame != f {
			continue
		}
		switch ev.Op {
		case OpJoin:
			changed = m.join(f, ev.Proc) || changed
		case OpLeave:
			changed = m.leave(f, ev.Proc) || changed
		}
	}

	// Catch-up: refresh every live non-auth member's copy of the SCRAM's
	// committed state. Joining members count copy frames toward promotion;
	// caught-up standbys keep refreshing, so their local copy is at most
	// one frame stale — the fallback restore source if the primary's own
	// snapshot is found corrupt during a takeover.
	if authAlive {
		var snap map[string][]byte
		for i := range m.view.Members {
			mem := &m.view.Members[i]
			if mem.Proc == m.view.Auth || mem.Status == StatusDown {
				continue
			}
			p, err := m.pool.Proc(mem.Proc)
			if err != nil || !p.Alive() {
				continue
			}
			if snap == nil {
				snap = st.SnapshotPrefix(scramPrefix)
			}
			m.keyScratch = det.SortedKeysInto(m.keyScratch, snap)
			dst := p.Stable()
			for _, k := range m.keyScratch {
				dst.Put(catchUpPrefix+k, snap[k])
			}
			if mem.Status == StatusJoining {
				mem.CatchUp++
				if mem.CatchUp >= m.catchUpFrames {
					mem.Status, mem.CaughtUp = StatusActive, true
					m.tel.Record(telemetry.Event{
						Frame:  f,
						Kind:   telemetry.KindMemberJoin,
						Host:   string(mem.Proc),
						Detail: fmt.Sprintf("caught up after %d frames; takeover-eligible", mem.CatchUp),
					})
					changed = true
				}
			}
		}
	}

	if changed {
		m.bumpEpoch()
		m.markEpoch(f)
	}
}

// markEpoch records the epoch change as an instantaneous span.
func (m *Manager) markEpoch(f int64) {
	if !m.book.Enabled() {
		return
	}
	m.epochAttrs = m.epochAttrs[:0].
		With("epoch", m.view.Epoch).
		With("members", int64(len(m.view.Members)))
	m.book.Mark(f, telemetry.SpanEpoch, telemetry.Event{
		Host:  string(m.view.Auth),
		Attrs: m.epochAttrs,
	})
}

// recordDefect classifies a committed membership record against the
// authoritative view; an empty string means the record is sound.
func (m *Manager) recordDefect(raw []byte) string {
	v := &m.recView
	if err := decodeRecordInto(raw, m.rs, v); err != nil {
		return err.Error()
	}
	if v.Epoch > m.epochHint {
		// Whatever epoch the record claims becomes the monotonicity
		// floor, so convergence always moves strictly past it.
		m.epochHint = v.Epoch
	}
	if v.Epoch < 1 {
		return fmt.Sprintf("record epoch %d is illegal", v.Epoch)
	}
	for _, mem := range v.Members {
		if _, ok := m.rs.Platform.Proc(mem.Proc); !ok {
			return fmt.Sprintf("record names departed or undeclared processor %q", mem.Proc)
		}
	}
	if v.Member(v.Auth) == nil {
		return fmt.Sprintf("record's authoritative host %q is not a member", v.Auth)
	}
	if v.Epoch != m.view.Epoch || v.Auth != m.view.Auth || !membersEqual(v.Members, m.view.Members) {
		return fmt.Sprintf("record diverged from the frame-synchronous view (epoch %d, want %d)", v.Epoch, m.view.Epoch)
	}
	return ""
}

// join admits a processor as a joining standby. Joins extend the platform,
// so re-verification can only fail for a processor the specification never
// declared.
func (m *Manager) join(f int64, proc spec.ProcID) bool {
	if m.view.Member(proc) != nil {
		return false // already a member; repair re-join is handled by Step
	}
	p, err := m.pool.Proc(proc)
	if err != nil {
		m.reject(f, proc, OpJoin, fmt.Sprintf("undeclared processor: %v", err))
		return false
	}
	if err := Verify(m.rs, m.memberIDs([]spec.ProcID{proc})); err != nil {
		m.reject(f, proc, OpJoin, err.Error())
		return false
	}
	if p.State() == failstop.StateOff {
		p.Repair() // spares boot powered off; a joiner must run to catch up
	}
	m.view.Members = append(m.view.Members, Member{Proc: proc, Status: StatusJoining})
	sort.Slice(m.view.Members, func(i, j int) bool { return m.view.Members[i].Proc < m.view.Members[j].Proc })
	m.stats.Joins++
	m.met.joins.Inc()
	m.met.members.Set(int64(len(m.view.Members)))
	m.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.KindMemberJoin,
		Host:   string(proc),
		Detail: fmt.Sprintf("joining; catch-up %d frames", m.catchUpFrames),
	})
	return true
}

// leave drains a processor gracefully. The removal must re-verify: if any
// configuration still places applications on the processor (or the shrunken
// platform fails any other static obligation), the change is rejected and
// the prior epoch keeps serving.
func (m *Manager) leave(f int64, proc spec.ProcID) bool {
	if m.view.Member(proc) == nil {
		return false
	}
	if m.required[proc] {
		m.reject(f, proc, OpLeave, "required SCRAM host may not leave")
		return false
	}
	if err := Verify(m.rs, m.memberIDsWithout(proc)); err != nil {
		m.reject(f, proc, OpLeave, err.Error())
		return false
	}
	kept := m.view.Members[:0]
	for _, mem := range m.view.Members {
		if mem.Proc != proc {
			kept = append(kept, mem)
		}
	}
	m.view.Members = kept
	m.stats.Leaves++
	m.met.leaves.Inc()
	m.met.members.Set(int64(len(m.view.Members)))
	m.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.KindMemberLeave,
		Host:   string(proc),
		Detail: "graceful leave verified",
	})
	return true
}

func (m *Manager) reject(f int64, proc spec.ProcID, op Op, reason string) {
	m.rejected = append(m.rejected, Rejection{Frame: f, Proc: proc, Op: op, Reason: reason})
	m.stats.Rejected++
	m.met.rejected.Inc()
	m.tel.Record(telemetry.Event{
		Frame:  f,
		Kind:   telemetry.KindMembershipReject,
		Host:   string(proc),
		Detail: fmt.Sprintf("%s rejected: %s", op, reason),
	})
}

// bumpEpoch moves the view to a strictly larger epoch than both the current
// view and every epoch ever observed in a committed record.
func (m *Manager) bumpEpoch() {
	next := m.view.Epoch
	if m.epochHint > next {
		next = m.epochHint
	}
	next++
	m.view.Epoch = next
	m.epochHint = next
	m.dirty = true
	m.met.epoch.Set(next)
}

// OnTakeover is called by the SCRAM manager, within the takeover frame,
// after a standby restored the kernel: the authoritative host changes, which
// always opens a new epoch — the committed (epoch, auth) pairs therefore
// never show two authoritative kernels for one epoch.
func (m *Manager) OnTakeover(f int64, newAuth spec.ProcID) {
	m.view.Auth = newAuth
	if mem := m.view.Member(newAuth); mem != nil {
		mem.Status, mem.CaughtUp = StatusActive, true
	}
	m.bumpEpoch()
	m.markEpoch(f)
}

// Finish closes the frame, after the SCRAM manager's hook and before the
// stable-storage commits: a changed view is staged onto the (possibly new)
// active kernel's store so the epoch commits at this frame's boundary, and
// the frame's membership state is appended to the invariant log. owners maps
// each placed application to the processor actually hosting it this frame.
func (m *Manager) Finish(f int64, st *stable.Store, owners map[spec.AppID]spec.ProcID) {
	if m.dirty && m.procAlive(m.view.Auth) {
		//lint:allow allocfree bounded: the scratch grows to the largest record once, then is reused
		m.recEnc = appendRecord(m.recEnc[:0], m.view)
		st.Put(RecordKey, m.recEnc)
		m.dirty = false
	}
	rec := FrameRecord{
		Frame:   f,
		Epoch:   m.view.Epoch,
		Auth:    m.view.Auth,
		Members: append([]Member(nil), m.view.Members...),
	}
	m.ownerScratch = det.SortedKeysInto(m.ownerScratch, owners)
	for _, id := range m.ownerScratch {
		rec.Owners = append(rec.Owners, Owner{App: id, Proc: owners[id]})
	}
	m.log = append(m.log, rec)
}

// TakeoverCandidates returns the processors eligible to restore the kernel,
// sorted by ID: caught-up, live, active members other than the current
// authoritative host.
func (m *Manager) TakeoverCandidates() []spec.ProcID {
	var out []spec.ProcID
	for _, mem := range m.view.Members {
		if mem.Proc == m.view.Auth || mem.Status != StatusActive || !mem.CaughtUp {
			continue
		}
		if m.procAlive(mem.Proc) {
			out = append(out, mem.Proc)
		}
	}
	return out
}

// StandbyProcs returns the member processors that must stay powered: every
// non-down member (joining processors need frames to catch up; caught-up
// standbys must stay warm to be takeover-eligible).
func (m *Manager) StandbyProcs() []spec.ProcID {
	var out []spec.ProcID
	for _, mem := range m.view.Members {
		if mem.Status != StatusDown {
			out = append(out, mem.Proc)
		}
	}
	return out
}

// CatchUpSnapshot returns proc's committed catch-up copy of the SCRAM's
// stable state, with keys mapped back to their original names — the shape
// scram.Restore consumes. It returns nil if proc holds no copy. The copy
// trails the primary's own committed state by at most one frame, which a
// restored kernel tolerates: it re-plans from the restored state exactly as
// it would after losing the takeover frame itself.
func (m *Manager) CatchUpSnapshot(proc spec.ProcID) map[string][]byte {
	p, err := m.pool.Proc(proc)
	if err != nil {
		return nil
	}
	snap := p.Stable().SnapshotPrefix(catchUpPrefix)
	if len(snap) == 0 {
		return nil
	}
	out := make(map[string][]byte, len(snap))
	m.keyScratch = det.SortedKeysInto(m.keyScratch, snap)
	for _, k := range m.keyScratch {
		out[k[len(catchUpPrefix):]] = snap[k]
	}
	return out
}

func (m *Manager) procAlive(id spec.ProcID) bool {
	p, err := m.pool.Proc(id)
	return err == nil && p.Alive()
}
