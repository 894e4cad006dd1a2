// Package failstop models fail-stop processors in the sense of Schlichting
// and Schneider ("Fail-stop processors: an approach to designing
// fault-tolerant computing systems", TOCS 1983), as used by the assured
// reconfiguration architecture of Strunk, Knight and Aiello (DSN 2005).
//
// A fail-stop processor has exactly two externally visible failure
// behaviours:
//
//   - it stops executing at the end of the last instruction (here: frame) it
//     completed successfully, and
//   - the contents of its volatile storage are lost while the contents of
//     its stable storage are preserved and remain pollable by the surviving
//     processors.
//
// The package provides the simulated processor (Processor), the
// self-checking-pair detection mechanism that realizes fail-stop semantics
// out of non-fail-stop parts (SelfCheckingPair), and the platform-level
// collection with static placement support (Pool).
package failstop

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/spec"
	"repro/internal/stable"
)

// Errors reported by this package.
var (
	// ErrUnknownProc reports an operation naming a processor the pool does
	// not contain.
	ErrUnknownProc = errors.New("failstop: unknown processor")
	// ErrFailed reports an operation on a processor that has failed.
	ErrFailed = errors.New("failstop: processor has failed")
	// ErrDivergence reports that the two halves of a self-checking pair
	// disagreed, which halts the processor.
	ErrDivergence = errors.New("failstop: self-checking pair divergence")
)

// State is the operational state of a processor.
type State int

// Processor states.
const (
	// StateRunning is normal operation at full capacity.
	StateRunning State = iota + 1
	// StateLowPower is operation at reduced capacity (and power draw),
	// used by configurations that must shed electrical load.
	StateLowPower
	// StateFailed is the halted state after a fail-stop failure.
	StateFailed
	// StateOff is a deliberate shutdown (e.g. a configuration that powers
	// the processor down). Unlike StateFailed, volatile contents were
	// flushed by an orderly stop.
	StateOff
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateLowPower:
		return "low-power"
	case StateFailed:
		return "failed"
	case StateOff:
		return "off"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Processor is a simulated fail-stop processor: processing capacity, volatile
// storage, and frame-atomic stable storage. Like the system that owns it, a
// Processor belongs to one goroutine at a time.
type Processor struct {
	id     spec.ProcID
	stable *stable.Store

	state         State
	volatile      map[string][]byte
	capacity      spec.Resources
	lowPower      spec.Resources
	failedAtFrame int64
	storageFault  error
	failObserver  func(frame int64, storageFault error)
}

// SetFailObserver installs a callback invoked once when the processor
// fail-stops, after the halt has taken effect, with the halt frame and the
// unrecoverable storage fault that caused the halt (nil for an ordinary
// failure). The telemetry layer uses it to journal processor halts.
func (p *Processor) SetFailObserver(fn func(frame int64, storageFault error)) {
	p.failObserver = fn
}

// NewProcessor returns a running processor with the given identity and
// capacities. lowPower may be the zero value if the processor has no
// low-power mode.
func NewProcessor(id spec.ProcID, capacity, lowPower spec.Resources, st *stable.Store) *Processor {
	p := &Processor{
		id:       id,
		state:    StateRunning,
		volatile: make(map[string][]byte),
		capacity: capacity,
		lowPower: lowPower,
		stable:   st,
	}
	if p.stable == nil {
		p.stable = stable.NewStore()
	}
	if p.stable.Hardened() != nil {
		// Hardened storage: corruption that defeats every replica halts
		// the processor. Returning wrong (or silently absent) data would
		// break fail-stop semantics; halting preserves them, because a
		// halt is exactly the failure behaviour the rest of the system
		// is built to survive. The store invokes the sink after its own
		// bookkeeping, so the halt path may discard staged writes safely.
		p.stable.SetFaultSink(func(err error) {
			p.FailStorage(int64(p.stable.Version()), err)
		})
	}
	return p
}

// ID returns the processor identifier.
func (p *Processor) ID() spec.ProcID { return p.id }

// Stable returns the processor's stable storage. The store remains readable
// after the processor fails — that is the point of stable storage.
func (p *Processor) Stable() *stable.Store { return p.stable }

// State returns the current operational state.
func (p *Processor) State() State {
	return p.state
}

// Alive reports whether the processor can execute work (running or
// low-power).
func (p *Processor) Alive() bool {
	s := p.State()
	return s == StateRunning || s == StateLowPower
}

// EffectiveCapacity returns the resource capacity available in the current
// state: full capacity when running, the low-power capacity when in
// low-power mode, and zero when failed or off.
func (p *Processor) EffectiveCapacity() spec.Resources {
	switch p.state {
	case StateRunning:
		return p.capacity
	case StateLowPower:
		return p.lowPower
	default:
		return spec.Resources{}
	}
}

// Fail makes the processor fail with fail-stop semantics at the end of frame
// `frame`: execution halts, volatile storage (including stable-storage writes
// staged during the failing frame) is lost, and committed stable storage is
// preserved. Failing an already-failed processor is a no-op.
func (p *Processor) Fail(frame int64) {
	if p.state == StateFailed {
		return
	}
	p.state = StateFailed
	p.failedAtFrame = frame
	clear(p.volatile)
	p.stable.Discard()
	observer, fault := p.failObserver, p.storageFault
	if observer != nil {
		observer(frame, fault)
	}
}

// FailStorage halts the processor because its stable storage suffered an
// unrecoverable fault (corruption that defeated every replica). The fault is
// recorded for diagnostics; the externally visible behaviour is an ordinary
// fail-stop failure — detection converts a sub-model storage fault into the
// clean halt the architecture is built to survive. Committed (still
// readable) storage remains pollable: the surviving replicas' data is intact
// for every key except the unrecoverable ones.
func (p *Processor) FailStorage(frame int64, err error) {
	if p.state == StateFailed {
		return
	}
	p.storageFault = err
	p.Fail(frame)
}

// StorageFault returns the unrecoverable stable-storage fault that halted
// the processor, or nil if it never suffered one.
func (p *Processor) StorageFault() error {
	return p.storageFault
}

// FailedAtFrame returns the frame in which the processor failed; it is only
// meaningful when State is StateFailed. For a storage-fault halt raised
// through the store's fault sink the processor has no frame counter, so the
// recorded value is the store's commit version at the halt — which tracks
// the number of frames the processor spent alive, not the wall-clock frame.
func (p *Processor) FailedAtFrame() int64 {
	return p.failedAtFrame
}

// Repair restarts a failed or powered-off processor. Volatile storage starts
// empty; stable storage retains its last committed contents, which is what a
// restarted processor recovers from.
func (p *Processor) Repair() {
	p.state = StateRunning
	clear(p.volatile)
}

// SetLowPower switches between full-capacity and low-power operation. It
// returns ErrFailed if the processor is not alive.
func (p *Processor) SetLowPower(low bool) error {
	if p.state == StateFailed || p.state == StateOff {
		return fmt.Errorf("%w: %s", ErrFailed, p.id)
	}
	if low {
		p.state = StateLowPower
	} else {
		p.state = StateRunning
	}
	return nil
}

// PowerOff performs an orderly shutdown: volatile storage is flushed
// (cleared) and the processor stops consuming resources. Stable storage is
// preserved.
func (p *Processor) PowerOff() {
	if p.state == StateFailed {
		return
	}
	p.state = StateOff
	clear(p.volatile)
}

// PutVolatile stores a value in volatile storage. It returns ErrFailed if
// the processor cannot execute.
func (p *Processor) PutVolatile(key string, val []byte) error {
	if p.state != StateRunning && p.state != StateLowPower {
		return fmt.Errorf("%w: %s", ErrFailed, p.id)
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	p.volatile[key] = cp
	return nil
}

// GetVolatile reads a value from volatile storage.
func (p *Processor) GetVolatile(key string) ([]byte, bool) {
	v, ok := p.volatile[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// Computation is one replica of a self-checked computation: it returns the
// bytes that will be compared against the sibling replica's output.
type Computation func() ([]byte, error)

// SelfCheckingPair realizes fail-stop semantics for a processor by running
// every computation twice and halting the processor on any divergence — the
// classic construction the paper cites as "an example fail-stop processor
// might be a self-checking pair".
type SelfCheckingPair struct {
	proc *Processor
}

// NewSelfCheckingPair wraps proc in a self-checking pair.
func NewSelfCheckingPair(proc *Processor) *SelfCheckingPair {
	return &SelfCheckingPair{proc: proc}
}

// Run executes both replicas concurrently and compares their outputs. On
// agreement it returns the common output. On divergence or on any replica
// error it fails the underlying processor at the given frame (fail-stop) and
// returns an error wrapping ErrDivergence.
func (sc *SelfCheckingPair) Run(frame int64, replicaA, replicaB Computation) ([]byte, error) {
	if !sc.proc.Alive() {
		return nil, fmt.Errorf("%w: %s", ErrFailed, sc.proc.ID())
	}
	type result struct {
		out []byte
		err error
	}
	resB := make(chan result, 1)
	//lint:allow nofreegoroutine audited launch: replica B runs for exactly one computation and is joined on resB before Run returns
	go func() {
		out, err := replicaB()
		resB <- result{out, err}
	}()
	outA, errA := replicaA()
	rb := <-resB
	if errA != nil || rb.err != nil {
		sc.proc.Fail(frame)
		return nil, fmt.Errorf("%w: replica error (a=%v, b=%v)", ErrDivergence, errA, rb.err)
	}
	if !bytes.Equal(outA, rb.out) {
		sc.proc.Fail(frame)
		return nil, fmt.Errorf("%w: outputs differ on processor %s", ErrDivergence, sc.proc.ID())
	}
	return outA, nil
}

// Pool is the set of processors making up the computing platform, with
// helpers for static placement and post-failure polling.
type Pool struct {
	procs map[spec.ProcID]*Processor
	order []spec.ProcID
	// ordered caches the processors in identifier order. The pool's
	// membership is fixed at construction (dynamic membership changes the
	// view over the pool, not the pool itself), so the slice is built once
	// and shared by every Procs call.
	ordered []*Processor
}

// NewPool builds a pool from a platform description. Every processor starts
// running with empty, assumed-perfect storage.
func NewPool(platform spec.Platform) *Pool {
	return NewPoolWithStores(platform, nil)
}

// NewPoolWithStores builds a pool whose processors use the stores returned
// by mk — the hook through which hardened (replicated, checksummed) stable
// storage is mounted. A nil mk (or a nil store from mk) gives the default
// in-memory store.
func NewPoolWithStores(platform spec.Platform, mk func(spec.ProcID) *stable.Store) *Pool {
	pool := &Pool{procs: make(map[spec.ProcID]*Processor, len(platform.Procs))}
	for _, pd := range platform.Procs {
		var st *stable.Store
		if mk != nil {
			st = mk(pd.ID)
		}
		pool.procs[pd.ID] = NewProcessor(pd.ID, pd.Capacity, pd.LowPowerCapacity, st)
		pool.order = append(pool.order, pd.ID)
	}
	sort.Slice(pool.order, func(i, j int) bool { return pool.order[i] < pool.order[j] })
	pool.ordered = make([]*Processor, 0, len(pool.order))
	for _, id := range pool.order {
		pool.ordered = append(pool.ordered, pool.procs[id])
	}
	return pool
}

// Proc returns the processor with the given ID.
func (pl *Pool) Proc(id spec.ProcID) (*Processor, error) {
	p, ok := pl.procs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProc, id)
	}
	return p, nil
}

// Procs returns every processor in identifier order. The returned slice is
// shared (the pool's membership is fixed at construction); callers must not
// modify it.
func (pl *Pool) Procs() []*Processor {
	return pl.ordered
}

// Fail fails the named processor at the given frame.
func (pl *Pool) Fail(id spec.ProcID, frame int64) error {
	p, err := pl.Proc(id)
	if err != nil {
		return err
	}
	p.Fail(frame)
	return nil
}

// Repair repairs the named processor.
func (pl *Pool) Repair(id spec.ProcID) error {
	p, err := pl.Proc(id)
	if err != nil {
		return err
	}
	p.Repair()
	return nil
}

// Alive returns the identifiers of processors that can execute, in order.
func (pl *Pool) Alive() []spec.ProcID {
	var alive []spec.ProcID
	for _, p := range pl.Procs() {
		if p.Alive() {
			alive = append(alive, p.ID())
		}
	}
	return alive
}

// AliveCapacity returns the summed effective capacity of all alive
// processors.
func (pl *Pool) AliveCapacity() spec.Resources {
	var total spec.Resources
	for _, p := range pl.Procs() {
		total = total.Add(p.EffectiveCapacity())
	}
	return total
}

// PollStable returns a snapshot of the named processor's committed stable
// storage. It works regardless of the processor's state: polling the stable
// storage of failed processors is exactly how survivors learn the failed
// processor's last consistent state.
func (pl *Pool) PollStable(id spec.ProcID) (map[string][]byte, error) {
	p, err := pl.Proc(id)
	if err != nil {
		return nil, err
	}
	return p.Stable().Snapshot(), nil
}
