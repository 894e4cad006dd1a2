// Package fleet hosts many concurrent reconfigurable systems — one
// core.System per tenant — behind a single long-running service: the
// production shape of the ROADMAP's "millions of users" claim, where every
// connected vehicle or tenant is its own frame-synchronous system.
//
// The host multiplexes tenants over a shared batched scheduler: a fixed pool
// of shard workers sweeps the running tenants each tick, stepping every
// tenant a batch of frames. The frame scheduler runs a frame as one ordered
// pass on its caller's goroutine, so a tenant's entire frame executes inside
// the shard worker's goroutine — which is what makes the isolation boundary
// work: a panicking application is caught by the worker's recover, the
// tenant is quarantined with its black box recoverable from committed stable
// storage, and the sweep moves on. A fail-stopped or panicked tenant never stalls the
// scheduler and never touches another tenant's state.
//
// Determinism survives multiplexing because tenants share nothing: each
// system owns its environment, pool, telemetry and trace RNG (seeded from
// SpawnSpec.Seed), and control-plane injections are serialized with stepping
// by the per-tenant lock, applying between frames exactly like the scripted
// constructs they are defined to mirror (see internal/core/drive.go). A
// tenant stepped by the fleet therefore produces the byte-identical trace of
// the same-seed standalone run — the property the determinism test and the
// CI smoke job hold.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/telemetry"
	"repro/internal/telemetry/serve"
)

// SpawnSpec names everything needed to construct a tenant: a spec preset
// from the spectest registry, the determinism seed, and an optional frame
// budget. Equal SpawnSpecs produce byte-identically-traced tenants.
type SpawnSpec struct {
	// ID is the tenant identifier; empty lets the host assign one.
	ID string `json:"id,omitempty"`
	// Preset is the named specification preset (spectest.Lookup).
	Preset string `json:"preset"`
	// Seed drives the tenant's trace RNG; equal seeds give equal runs.
	Seed int64 `json:"seed"`
	// Frames caps the tenant's run: after this many frames it completes
	// and stops stepping (still queryable). Zero runs until killed.
	Frames int64 `json:"frames,omitempty"`
	// Script is an optional deterministic environment schedule, applied
	// exactly like a standalone run's scripted events. Runtime injections
	// land on top of (and interleave with) the script.
	Script []envmon.Event `json:"script,omitempty"`
	// RetainFrames bounds the tenant's journal, trace and SCRAM protocol
	// log to a sliding window of frames (core.Options.RetainFrames): the
	// weeks-long-run mode, flat memory and stable-store footprint per
	// tenant. Zero inherits the host's Config.RetainFrames default;
	// negative forces unbounded retention on a host with a default. The
	// resolved value is part of the spec (and of the durable manifest):
	// trimming is deterministic, so replays must trim identically.
	RetainFrames int64 `json:"retain_frames,omitempty"`
}

// retainFrames resolves the spec's retention against the host default.
func (ss SpawnSpec) retainFrames() int64 {
	if ss.RetainFrames < 0 {
		return 0
	}
	return ss.RetainFrames
}

// SpawnOptions resolves a SpawnSpec into the core.Options the fleet host
// runs it under. It is exported so a standalone re-execution (the
// determinism test, a post-incident replay) constructs the identical system
// the host did.
func SpawnOptions(ss SpawnSpec) (core.Options, error) {
	preset, err := spectest.Lookup(ss.Preset)
	if err != nil {
		return core.Options{}, err
	}
	rs := preset.New()
	return core.Options{
		Spec:           rs,
		Apps:           core.BasicApps(rs),
		Classifier:     preset.Classifier,
		InitialFactors: preset.Factors(),
		Script:         ss.Script,
		TraceSeed:      ss.Seed,
		RetainFrames:   ss.retainFrames(),
	}, nil
}

// State is a tenant's lifecycle state.
type State string

const (
	// StateRunning tenants are stepped by the shard sweep.
	StateRunning State = "running"
	// StateCompleted tenants reached their frame budget; they are no
	// longer stepped but stay fully queryable.
	StateCompleted State = "completed"
	// StateQuarantined tenants panicked or failed a step; they are
	// isolated from the sweep and serve their post-mortem black box.
	StateQuarantined State = "quarantined"
)

// Tenant is one hosted system. All access to the underlying System is
// serialized by mu: the shard worker holds it while stepping, the control
// plane holds it while injecting or snapshotting, so injections always land
// between frames.
type Tenant struct {
	id   string
	spec SpawnSpec
	// host backlinks to the owning Host for the quarantine-snapshot LRU;
	// nil for hand-built test tenants (then snapshots cache unbounded,
	// the pre-LRU behavior).
	host *Host

	mu     sync.Mutex
	sys    *core.System
	state  State
	reason string
	// cond (on mu) is the frame barrier: stepBatch broadcasts after every
	// batch and every lifecycle transition, and Inject waits on it until
	// the injected frame has committed — the applied_frame ack is never
	// issued for a frame the tenant did not execute. Lazily created so
	// hand-built test tenants work.
	cond *sync.Cond
	// injSeq orders injections within the tenant: assigned under mu at
	// apply time, it is the replay order journaled in the manifest.
	injSeq int64
	// panicAt arms a chaos panic: stepBatch panics before executing this
	// frame (0 disarms). Deterministic, so a recovered tenant re-armed
	// with the same frame re-quarantines identically.
	panicAt int64
	// final is the cached post-mortem snapshot of a quarantined tenant,
	// recovered from committed stable storage (the black box), so the
	// serve plane never touches a possibly-torn live system again. The
	// host's LRU may evict it (nil again); it is then re-recovered from
	// the same stable storage on demand.
	final *serve.Snapshot
	// lastCkptFrame/lastCkptState track what the manifest already has, so
	// the checkpoint sweep only stages tenants that moved.
	lastCkptFrame int64
	lastCkptState State
	// closed marks the underlying system torn down (killed tenant, closed
	// host): no snapshot re-recovery, no frame reads.
	closed bool

	frameLen time.Duration
}

// condLocked returns the tenant's frame-barrier cond, creating it on first
// use. Callers hold mu.
func (t *Tenant) condLocked() *sync.Cond {
	if t.cond == nil {
		t.cond = sync.NewCond(&t.mu)
	}
	return t.cond
}

// broadcastLocked wakes injection barriers after progress or a lifecycle
// transition. Callers hold mu.
func (t *Tenant) broadcastLocked() {
	if t.cond != nil {
		t.cond.Broadcast()
	}
}

// Status is a tenant's control-plane view.
type Status struct {
	ID     string `json:"id"`
	Preset string `json:"preset"`
	Seed   int64  `json:"seed"`
	State  State  `json:"state"`
	Frame  int64  `json:"frame"`
	// Frames is the frame budget (0 = unbounded).
	Frames int64 `json:"frames,omitempty"`
	// Reason is why the tenant was quarantined, when it was.
	Reason string `json:"reason,omitempty"`
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// Status returns the tenant's current control-plane view.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Status{
		ID:     t.id,
		Preset: t.spec.Preset,
		Seed:   t.spec.Seed,
		State:  t.state,
		Frame:  t.sys.Frame(),
		Frames: t.spec.Frames,
		Reason: t.reason,
	}
}

// TelemetrySnapshot implements serve.Source: the per-tenant telemetry plane
// (metrics, journal, traces) reads through here. Running and completed
// tenants snapshot the live system under the tenant lock — consistent
// because stepping holds the same lock; quarantined tenants serve the
// cached post-mortem snapshot.
func (t *Tenant) TelemetrySnapshot() (serve.Snapshot, bool) {
	t.mu.Lock()
	if t.state == StateQuarantined {
		if t.final == nil {
			// The host's LRU evicted the cached copy: re-recover the
			// post-mortem on demand from the same committed stable storage
			// quarantine originally read it from.
			t.final = t.postMortemLocked()
		}
		snap := *t.final
		host := t.host
		t.mu.Unlock()
		if host != nil {
			host.noteQuarantine(t)
		}
		return snap, true
	}
	defer t.mu.Unlock()
	if t.final != nil {
		return *t.final, true
	}
	reg, rec := t.sys.Telemetry()
	if reg == nil {
		return serve.Snapshot{}, false
	}
	return serve.Snapshot{
		Frame:    t.sys.Frame(),
		FrameLen: t.frameLen,
		Metrics:  reg.Snapshot(),
		Events:   rec.Events(),
	}, true
}

// Injection is one control-plane fault injection. Kind selects the variant:
//
//   - "env": set environment factor Factor to Value (visible next frame,
//     like a scripted event at the applied frame);
//   - "procfail"/"procrepair": schedule a processor event at Frame
//     (defaulting to the earliest frame that can still apply);
//   - "storage": halt processor Proc with an unrecoverable storage fault;
//   - "panic": arm a deterministic tenant panic at Frame (default: the next
//     frame) — the shard worker's recover quarantines the tenant exactly as
//     a real application panic would. The chaos harness's tenant-level
//     fault.
type Injection struct {
	Kind   string `json:"kind"`
	Factor string `json:"factor,omitempty"`
	Value  string `json:"value,omitempty"`
	Proc   string `json:"proc,omitempty"`
	Frame  int64  `json:"frame,omitempty"`
	// RequestID is the client's idempotency key: the host dedupes repeated
	// requests with the same (tenant, RequestID), replaying the first
	// outcome instead of applying twice. It is journaled with the ack, so
	// dedupe survives a host restart.
	RequestID string `json:"request_id,omitempty"`
}

// Inject applies an injection between frames, waits for the applied frame's
// commit barrier, and returns the frame at which the injection took effect —
// the frame a scripted standalone replay would use to reproduce the run. By
// the time Inject returns nil, that frame has committed (or provably never
// will), so the ack is a faithful replay recipe.
func (t *Tenant) Inject(inj Injection) (int64, error) {
	_, applied, err := t.inject(inj)
	return applied, err
}

// inject is Inject plus the tenant-local ord — the apply order the host
// journals so recovery replays injections in the order they landed.
func (t *Tenant) inject(inj Injection) (ord, applied int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ord, applied, err = t.applyLocked(inj)
	if err != nil {
		return 0, 0, err
	}
	if inj.Kind == "panic" {
		// The armed frame never commits — a frame barrier would deadlock.
		// The ack means "armed"; replay re-arms the same frame and the
		// tenant re-quarantines identically.
		return ord, applied, nil
	}
	if err := t.awaitAppliedLocked(applied); err != nil {
		return 0, 0, err
	}
	return ord, applied, nil
}

// applyLocked applies one injection between frames and assigns its ord.
// Callers hold mu.
func (t *Tenant) applyLocked(inj Injection) (ord, applied int64, err error) {
	if t.state != StateRunning {
		return 0, 0, fmt.Errorf("fleet: tenant %s is %s, not running", t.id, t.state)
	}
	next := t.sys.Frame()
	switch inj.Kind {
	case "env":
		if inj.Factor == "" {
			return 0, 0, errors.New("fleet: env injection needs a factor")
		}
		t.sys.InjectFactor(envmon.Factor(inj.Factor), inj.Value)
		applied = next
	case "procfail", "procrepair":
		kind := core.ProcFail
		frame := inj.Frame
		if inj.Kind == "procrepair" {
			kind = core.ProcRepair
			if frame == 0 {
				frame = next + 1
			}
		} else if frame == 0 {
			frame = next
		}
		ev := core.ProcEvent{Frame: frame, Proc: spec.ProcID(inj.Proc), Kind: kind}
		if err := t.sys.ScheduleProcEvent(ev); err != nil {
			return 0, 0, err
		}
		applied = ev.Frame
	case "storage":
		if err := t.sys.InjectStorageFault(spec.ProcID(inj.Proc)); err != nil {
			return 0, 0, err
		}
		applied = next
	case "panic":
		frame := inj.Frame
		if frame == 0 {
			frame = next
		}
		if frame < next {
			return 0, 0, fmt.Errorf("fleet: panic at frame %d is in the past (next frame %d)", frame, next)
		}
		t.panicAt = frame
		applied = frame
	default:
		return 0, 0, fmt.Errorf("fleet: unknown injection kind %q (want env, procfail, procrepair, storage or panic)", inj.Kind)
	}
	ord = t.injSeq
	t.injSeq++
	return ord, applied, nil
}

// awaitAppliedLocked is the commit barrier behind every applied_frame ack: it
// blocks (releasing mu via the cond) until the tenant has stepped past the
// applied frame or left the running state. A tenant that completed at or
// before the applied frame acks fine — the injection is a no-op there and in
// any replay, which is still equivalence. A tenant quarantined before the
// frame committed fails the barrier: the frame's effects died with the
// panic, so acking it would hand the client a replay recipe the real run
// never executed. Callers hold mu.
func (t *Tenant) awaitAppliedLocked(applied int64) error {
	cond := t.condLocked()
	for t.state == StateRunning && t.sys.Frame() <= applied {
		cond.Wait()
	}
	if t.state == StateQuarantined && (t.closed || t.sys.Frame() <= applied) {
		return fmt.Errorf("fleet: tenant %s quarantined before frame %d committed: %s", t.id, applied, t.reason)
	}
	return nil
}

// stepBatch advances a running tenant up to n frames, enforcing the frame
// budget and converting panics and step errors into quarantine. It returns
// the number of frames actually stepped.
func (t *Tenant) stepBatch(n int) (stepped int64) {
	var quarantined bool
	t.mu.Lock()
	// The isolation boundary: a panic anywhere under Step — an application
	// bug, a hook, the kernel, an armed chaos panic — quarantines this
	// tenant and returns the shard worker to the sweep. The frame runs on
	// this goroutine, so the panic surfaces here and not in some
	// unrecoverable scheduler goroutine. The broadcast wakes injection
	// barriers after every batch; the LRU registration runs outside the
	// tenant lock so it can take other tenants' locks to evict.
	defer func() {
		if r := recover(); r != nil {
			t.quarantineLocked(fmt.Sprintf("panic: %v", r))
			quarantined = true
		}
		t.broadcastLocked()
		host := t.host
		t.mu.Unlock()
		if quarantined && host != nil {
			host.noteQuarantine(t)
		}
	}()
	if t.state != StateRunning {
		return 0
	}
	for i := 0; i < n; i++ {
		if t.spec.Frames > 0 && t.sys.Frame() >= t.spec.Frames {
			t.state = StateCompleted
			return stepped
		}
		if t.panicAt > 0 && t.sys.Frame() >= t.panicAt {
			// Injected chaos panic: deterministic (fires at a fixed frame
			// boundary), so a recovered tenant re-armed with the same frame
			// quarantines byte-identically.
			panic(fmt.Sprintf("injected chaos panic at frame %d", t.sys.Frame()))
		}
		if err := t.sys.Step(); err != nil {
			t.quarantineLocked("step error: " + err.Error())
			quarantined = true
			return stepped
		}
		stepped++
	}
	if t.spec.Frames > 0 && t.sys.Frame() >= t.spec.Frames {
		t.state = StateCompleted
	}
	return stepped
}

// postMortemLocked builds a quarantined tenant's snapshot. The events come
// from the black box — the journal recovered from the SCRAM host's committed
// stable storage, trailing the halt by at most one frame — not from the live
// ring, whose in-memory state a panic may have torn. Deterministic: the same
// committed storage yields the same snapshot, which is what makes LRU
// eviction of the cached copy safe. Callers hold mu.
func (t *Tenant) postMortemLocked() *serve.Snapshot {
	if t.closed {
		return &serve.Snapshot{}
	}
	snap := &serve.Snapshot{Frame: t.sys.Frame(), FrameLen: t.frameLen}
	if reg, _ := t.sys.Telemetry(); reg != nil {
		snap.Metrics = reg.Snapshot()
	}
	if stable, err := t.sys.Pool().PollStable(t.sys.SCRAMProc()); err == nil {
		if ring, err := telemetry.RecoverRing(stable); err == nil {
			snap.Events = ring
		}
	}
	return snap
}

// quarantineLocked isolates the tenant and caches its post-mortem snapshot
// so the serve plane never touches the possibly-torn live system again.
func (t *Tenant) quarantineLocked(reason string) {
	t.state = StateQuarantined
	t.reason = reason
	t.final = t.postMortemLocked()
}

// Config sizes the host's shared scheduler and, when Manifest is set, makes
// the host durable.
type Config struct {
	// Shards is the number of worker goroutines sweeping the fleet
	// (default: GOMAXPROCS).
	Shards int
	// Batch is the number of frames each tenant is stepped per sweep
	// (default 8). Larger batches amortize sweep overhead; smaller ones
	// bound control-plane injection latency in frames.
	Batch int
	// Manifest, when set, journals every spawn, acked injection and kill to
	// this store — the host's own black box. Recover rebuilds the fleet
	// from it after a crash, replaying every tenant to its pre-crash frame.
	// Nil keeps the host purely in-memory (the pre-durability behavior).
	Manifest *stable.Store
	// CheckpointEvery is the per-tenant checkpoint cadence in frames
	// (default 64): once a tenant advances this far past its last
	// checkpoint, the next sweep journals its progress. Checkpoints bound
	// the progress a crash loses, not the replay cost — recovery replays
	// from frame zero either way, because the journal is deterministic.
	CheckpointEvery int64
	// RetainFrames is the retention horizon inherited by tenants whose spec
	// leaves RetainFrames zero. See SpawnSpec.RetainFrames.
	RetainFrames int64
	// QuarantineCache caps how many quarantined tenants keep their
	// post-mortem snapshot cached in memory (default 64). Evicted
	// snapshots are re-recovered from committed stable storage on demand.
	QuarantineCache int
}

// dedupeEntry is one idempotency-cache slot: duplicates of an in-flight
// request wait on done, then replay the recorded outcome.
type dedupeEntry struct {
	done    chan struct{}
	applied int64
	err     error
}

// dedupeCap bounds the idempotency cache; oldest entries evict first. A
// request replayed after falling out of the window re-executes, which is
// safe: equal injections at equal frames are idempotent, and the manifest
// holds the authoritative record.
const dedupeCap = 4096

// Host runs the fleet: a tenant registry plus the shared batched scheduler.
type Host struct {
	cfg Config
	man *manifest // nil when the host is not durable

	mu       sync.Mutex
	tenants  map[string]*Tenant
	order    []string // spawn order, for deterministic listings
	nextID   int64
	spawnSeq int64 // next spawn sequence number (manifest ordering)

	frames   atomic.Int64 // total frames stepped across all tenants
	draining atomic.Bool  // set by Drain/Close: control plane refuses mutations

	// dmu guards the injection idempotency cache. Never held together with
	// h.mu or a tenant lock.
	dmu    sync.Mutex
	dedupe map[string]*dedupeEntry
	dorder []string // insertion order, for bounded eviction

	// qmu guards the quarantine-snapshot LRU. Eviction drops victims'
	// cached snapshots after releasing qmu — never hold qmu and a tenant
	// lock at once.
	qmu  sync.Mutex
	qlru []*Tenant // front = least recently served, back = most

	stopOnce sync.Once
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
}

// NewHost starts a fleet host and its scheduler loop. Close shuts it down.
// A Config with a Manifest store makes the host durable; use Recover instead
// of NewHost to also rebuild a pre-crash fleet from that store.
func NewHost(cfg Config) *Host {
	h := newHostNoLoop(cfg)
	h.startLoop()
	return h
}

// newHostNoLoop builds the host without starting the scheduler, so Recover
// can replay tenants before the sweep begins stepping them.
func newHostNoLoop(cfg Config) *Host {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.QuarantineCache <= 0 {
		cfg.QuarantineCache = 64
	}
	return &Host{
		cfg:     cfg,
		man:     newManifest(cfg.Manifest),
		tenants: make(map[string]*Tenant),
		dedupe:  make(map[string]*dedupeEntry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (h *Host) startLoop() {
	//lint:allow nofreegoroutine audited scheduler loop: sweeps tenants in shard workers and is joined by Close
	go h.run()
}

// stopLoop halts the scheduler exactly once and waits for it to exit.
func (h *Host) stopLoop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// Close stops the scheduler and closes every tenant's system. Unlike Drain
// it journals nothing extra: recovery falls back to the last periodic
// checkpoint, exactly as after a crash.
func (h *Host) Close() {
	h.draining.Store(true)
	h.stopLoop()
	h.closeTenants()
}

// Drain is the graceful shutdown of a durable host: it halts the scheduler,
// journals a final checkpoint for every tenant — the manifest-commit barrier
// a SIGTERM'd fleetd waits on before exiting — then closes tenant systems. A
// recovered fleet resumes from exactly the drained frames, losing nothing.
func (h *Host) Drain() {
	h.draining.Store(true)
	h.stopLoop()
	h.checkpoint(true)
	h.closeTenants()
}

func (h *Host) closeTenants() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.tenants {
		t.mu.Lock()
		if !t.closed {
			t.closed = true
			t.sys.Close()
		}
		t.broadcastLocked()
		t.mu.Unlock()
	}
}

// Draining reports whether the host is shutting down (control-plane
// mutations are refused).
func (h *Host) Draining() bool { return h.draining.Load() }

// Spawn constructs a tenant from a SpawnSpec and registers it with the
// scheduler. The system is built synchronously (including the static
// obligations check), so a Spawn that returns nil error is a live tenant —
// and, on a durable host, a journaled one: the manifest records the spawn
// before the tenant becomes visible, so no acked spawn is ever lost.
func (h *Host) Spawn(ss SpawnSpec) (*Tenant, error) {
	if ss.ID != "" {
		if err := ValidateTenantID(ss.ID); err != nil {
			return nil, err
		}
	}
	if ss.RetainFrames == 0 {
		// Resolve the host default into the spec before journaling: replay
		// must trim identically to the live run, so the manifest records
		// the resolved retention, not the host it happened to run on.
		ss.RetainFrames = h.cfg.RetainFrames
	}
	opts, err := SpawnOptions(ss)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: spawning tenant: %w", err)
	}

	h.mu.Lock()
	id := ss.ID
	if id == "" {
		for {
			h.nextID++
			id = fmt.Sprintf("t-%d", h.nextID)
			if _, taken := h.tenants[id]; !taken {
				break
			}
		}
	} else if _, taken := h.tenants[id]; taken {
		h.mu.Unlock()
		sys.Close()
		return nil, fmt.Errorf("fleet: tenant %q: %w", id, errTenantExists)
	}
	ss.ID = id
	seq := h.spawnSeq
	if err := h.man.recordSpawn(seq, ss); err != nil {
		h.mu.Unlock()
		sys.Close()
		return nil, fmt.Errorf("fleet: journaling spawn: %w", err)
	}
	h.spawnSeq++
	t := &Tenant{
		id:       id,
		spec:     ss,
		host:     h,
		sys:      sys,
		state:    StateRunning,
		frameLen: opts.Spec.FrameLen,
	}
	h.tenants[id] = t
	h.order = append(h.order, id)
	h.mu.Unlock()

	select {
	case h.wake <- struct{}{}:
	default:
	}
	return t, nil
}

// Get returns a tenant by id.
func (h *Host) Get(id string) (*Tenant, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.tenants[id]
	return t, ok
}

// Kill removes a tenant and closes its system. Its telemetry is gone with
// it: killing is the explicit discard, quarantine the recoverable one. On a
// durable host the tenant's whole manifest range is deleted in one commit —
// a recovered fleet never resurrects a killed tenant, and the manifest's
// footprint stays bounded by the live fleet.
func (h *Host) Kill(id string) error {
	h.mu.Lock()
	t, ok := h.tenants[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("fleet: no tenant %q", id)
	}
	delete(h.tenants, id)
	for i, oid := range h.order {
		if oid == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.mu.Unlock()

	// Take the tenant lock so a shard worker mid-batch finishes its frame
	// before the system is closed under it.
	t.mu.Lock()
	t.state = StateQuarantined
	t.reason = "killed"
	t.closed = true
	t.final = &serve.Snapshot{}
	t.sys.Close()
	t.broadcastLocked()
	t.mu.Unlock()

	if err := h.man.removeTenant(id); err != nil {
		return fmt.Errorf("fleet: journaling kill: %w", err)
	}
	return nil
}

// Inject routes an injection to a tenant with the full control-plane
// contract: request-ID idempotency, the applied-frame commit barrier, and —
// on a durable host — journaling before the ack, so every acked injection is
// in the replay recipe. Unacked injections may be lost with a crash:
// at-most-once, never silently divergent.
func (h *Host) Inject(id string, inj Injection) (int64, error) {
	t, ok := h.Get(id)
	if !ok {
		return 0, fmt.Errorf("fleet: no tenant %q", id)
	}
	var entry *dedupeEntry
	if inj.RequestID != "" {
		var primary bool
		entry, primary = h.claimRequest(id, inj.RequestID)
		if !primary {
			// Duplicate request: wait out the primary and replay its
			// outcome — same applied frame or same error, never a second
			// application.
			<-entry.done
			return entry.applied, entry.err
		}
	}
	applied, err := h.injectPrimary(t, inj)
	if entry != nil {
		entry.applied, entry.err = applied, err
		close(entry.done)
	}
	return applied, err
}

func (h *Host) injectPrimary(t *Tenant, inj Injection) (int64, error) {
	ord, applied, err := t.inject(inj)
	if err != nil {
		return 0, err
	}
	// The frame committed; journal before acking. A manifest failure fails
	// the ack — the client sees the error instead of holding a replay
	// recipe the recovered fleet would not honor.
	rec := injRecord{Ord: ord, Inj: inj, Applied: applied, RequestID: inj.RequestID}
	if err := h.man.recordInjection(t.id, rec); err != nil {
		return 0, fmt.Errorf("fleet: journaling injection: %w", err)
	}
	return applied, nil
}

// claimRequest registers an idempotency key, returning the cache entry and
// whether the caller is the primary (first claimant, responsible for filling
// the entry and closing done). The cache is bounded; see dedupeCap.
func (h *Host) claimRequest(tenantID, requestID string) (*dedupeEntry, bool) {
	key := tenantID + "\x00" + requestID
	h.dmu.Lock()
	defer h.dmu.Unlock()
	if e, ok := h.dedupe[key]; ok {
		return e, false
	}
	e := &dedupeEntry{done: make(chan struct{})}
	h.dedupe[key] = e
	h.dorder = append(h.dorder, key)
	for len(h.dorder) > dedupeCap {
		delete(h.dedupe, h.dorder[0])
		h.dorder = h.dorder[1:]
	}
	return e, true
}

// primeDedupe seeds the idempotency cache with a recovered injection's
// outcome, so a client retrying across the crash gets its pre-crash ack
// replayed instead of a double application.
func (h *Host) primeDedupe(tenantID, requestID string, applied int64) {
	if requestID == "" {
		return
	}
	e := &dedupeEntry{done: make(chan struct{}), applied: applied}
	close(e.done)
	h.dmu.Lock()
	key := tenantID + "\x00" + requestID
	if _, ok := h.dedupe[key]; !ok {
		h.dedupe[key] = e
		h.dorder = append(h.dorder, key)
		for len(h.dorder) > dedupeCap {
			delete(h.dedupe, h.dorder[0])
			h.dorder = h.dorder[1:]
		}
	}
	h.dmu.Unlock()
}

// noteQuarantine registers (or refreshes) a quarantined tenant in the
// post-mortem snapshot LRU and evicts beyond the cap. Eviction only drops
// the cached snapshot — the black box stays in committed stable storage, and
// TelemetrySnapshot re-recovers it on demand. Callers must not hold any
// tenant lock: eviction takes victims' locks one at a time.
func (h *Host) noteQuarantine(t *Tenant) {
	h.qmu.Lock()
	for i, q := range h.qlru {
		if q == t {
			h.qlru = append(append(h.qlru[:i], h.qlru[i+1:]...), t)
			h.qmu.Unlock()
			return
		}
	}
	h.qlru = append(h.qlru, t)
	var evict []*Tenant
	for len(h.qlru) > h.cfg.QuarantineCache {
		evict = append(evict, h.qlru[0])
		h.qlru = h.qlru[1:]
	}
	h.qmu.Unlock()
	for _, q := range evict {
		q.mu.Lock()
		if q.state == StateQuarantined {
			q.final = nil
		}
		q.mu.Unlock()
	}
}

// quarantineCached counts tenants currently holding a cached post-mortem
// snapshot — the LRU's occupancy, surfaced in Stats.
func (h *Host) quarantineCached() int {
	h.qmu.Lock()
	defer h.qmu.Unlock()
	return len(h.qlru)
}

// checkpoint journals the progress of every tenant that moved since its last
// checkpoint; force (the drain path) stages all of them regardless of
// cadence. One batched commit per sweep keeps the stable-store traffic
// bounded by the live fleet, not the frame rate.
func (h *Host) checkpoint(force bool) {
	if h.man == nil {
		return
	}
	h.mu.Lock()
	tenants := make([]*Tenant, 0, len(h.order))
	for _, id := range h.order {
		tenants = append(tenants, h.tenants[id])
	}
	h.mu.Unlock()

	cks := make(map[string]ckptRecord)
	for _, t := range tenants {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			continue
		}
		frame := t.sys.Frame()
		moved := frame != t.lastCkptFrame || t.state != t.lastCkptState
		due := force || t.state != t.lastCkptState || frame-t.lastCkptFrame >= h.cfg.CheckpointEvery
		if moved && due {
			cks[t.id] = ckptRecord{Frame: frame, State: t.state, Reason: t.reason}
			t.lastCkptFrame, t.lastCkptState = frame, t.state
		}
		t.mu.Unlock()
	}
	// Best-effort: a failed checkpoint commit costs recovery progress, not
	// correctness, and the manifest latches the fault for the next mutation.
	_ = h.man.recordCheckpoints(cks)
}

// List returns every tenant's status in spawn order.
func (h *Host) List() []Status {
	h.mu.Lock()
	ids := append([]string(nil), h.order...)
	tenants := make([]*Tenant, 0, len(ids))
	for _, id := range ids {
		tenants = append(tenants, h.tenants[id])
	}
	h.mu.Unlock()
	out := make([]Status, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.Status())
	}
	return out
}

// Stats is the host's aggregate accounting.
type Stats struct {
	// Tenants counts registered tenants by state.
	Tenants map[State]int `json:"tenants"`
	// FramesStepped is the total frames executed across all tenants.
	FramesStepped int64 `json:"frames_stepped"`
	// Shards and Batch echo the scheduler configuration.
	Shards int `json:"shards"`
	Batch  int `json:"batch"`
	// Durable reports whether the host journals to a manifest store.
	Durable bool `json:"durable"`
	// QuarantineCached is the post-mortem snapshot LRU's occupancy.
	QuarantineCached int `json:"quarantine_cached"`
	// Draining reports a host refusing control-plane mutations on its way
	// down.
	Draining bool `json:"draining,omitempty"`
}

// Stats returns the host's aggregate counters.
func (h *Host) Stats() Stats {
	st := Stats{
		Tenants:          make(map[State]int),
		Shards:           h.cfg.Shards,
		Batch:            h.cfg.Batch,
		Durable:          h.man != nil,
		QuarantineCached: h.quarantineCached(),
		Draining:         h.draining.Load(),
	}
	for _, s := range h.List() {
		st.Tenants[s.State]++
	}
	st.FramesStepped = h.frames.Load()
	return st
}

// FramesStepped returns the total frames executed across all tenants.
func (h *Host) FramesStepped() int64 { return h.frames.Load() }

// run is the scheduler loop: each tick snapshots the running tenants and
// sweeps them with the shard workers, every tenant advancing Batch frames.
// The barrier between ticks keeps the sweep fair — a tenant can't hog a
// shard for more than one batch while others wait.
func (h *Host) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		batch := h.running()
		if len(batch) == 0 {
			// Idle: wait for a spawn (wake), shutdown, or a short poll
			// tick (a tenant un-idles only via spawn, so the poll is
			// just a safety net).
			select {
			case <-h.stop:
				return
			case <-h.wake:
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		shards := h.cfg.Shards
		if shards > len(batch) {
			shards = len(batch)
		}
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			w := w
			wg.Add(1)
			//lint:allow nofreegoroutine audited shard worker: steps disjoint tenants for one sweep and is joined by the WaitGroup barrier
			go func() {
				defer wg.Done()
				var stepped int64
				for i := w; i < len(batch); i += shards {
					stepped += batch[i].stepBatch(h.cfg.Batch)
				}
				h.frames.Add(stepped)
			}()
		}
		wg.Wait()
		// The sweep barrier is also the checkpoint barrier: no tenant is
		// mid-frame here, so every journaled frame is a committed boundary.
		h.checkpoint(false)
	}
}

// running snapshots the currently running tenants in spawn order.
func (h *Host) running() []*Tenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Tenant, 0, len(h.order))
	for _, id := range h.order {
		t := h.tenants[id]
		t.mu.Lock()
		run := t.state == StateRunning
		t.mu.Unlock()
		if run {
			out = append(out, t)
		}
	}
	return out
}

// Presets returns the spawnable preset names, sorted — the control plane's
// discovery surface.
func Presets() []string {
	names := spectest.Names()
	sort.Strings(names)
	return names
}
