// Package scram implements the System Control Reconfiguration Analysis and
// Management kernel of Strunk, Knight and Aiello (DSN 2005, section 3 and
// section 6.3).
//
// The SCRAM receives component-failure and environment-change signals,
// determines the configuration the system must move to from a
// statically-defined choice table, and effects the reconfiguration by
// driving every application through the three-phase protocol of the paper's
// Table 1 — halt, prepare(Ct), initialize — via configuration-status
// variables in stable storage. Applications read their command at the start
// of each frame (stable storage is read-committed at frame granularity, so
// a command written during frame k governs frame k+1) and acknowledge by
// executing the commanded phase.
//
// The kernel runs at the frame-commit boundary (it is kernel infrastructure,
// not an application): monitors emit signals during frame k, the kernel
// plans during frame k's commit step, and the first protocol frame is k+1 —
// reproducing Table 1's frame numbering exactly.
package scram

import (
	"bytes"
	"fmt"

	"repro/internal/spec"
	"repro/internal/stable"
)

// Command is the configuration_status variable of section 6.2: what one
// application must do in a frame, as most recently committed by the SCRAM.
type Command struct {
	// Seq identifies the reconfiguration plan the command belongs to;
	// it increments on every trigger and retarget, letting applications
	// detect a changed target mid-window.
	Seq int64
	// Phase is the commanded protocol phase (normal, halt, prepare,
	// initialize).
	Phase spec.Phase
	// Target is the functional specification the application is assigned
	// in the configuration being entered (SpecOff if the application is
	// off). During normal operation it is the current assignment.
	Target spec.SpecID
	// Config is the configuration context: the current configuration
	// during normal operation, the target configuration during a
	// reconfiguration.
	Config spec.ConfigID
	// WinStart and WinEnd delimit (inclusive, in frames) when the
	// application actively executes the commanded phase; outside the
	// window the application holds (it has ceased normal execution and
	// either awaits its turn or has finished its phase work). Both are
	// zero for normal operation.
	WinStart int64
	WinEnd   int64
	// Epoch is the membership epoch the command was issued under; zero
	// when the system runs without dynamic membership. Applications
	// ignore commands stamped with an epoch older than one they have
	// already obeyed — a stale pre-takeover command cannot roll an
	// application back.
	Epoch int64
}

// Active reports whether the command's action window covers the frame.
func (c Command) Active(frameNum int64) bool {
	return c.Phase != spec.PhaseNormal && c.WinStart <= frameNum && frameNum <= c.WinEnd
}

// commandKey is the stable-storage key of an application's
// configuration_status variable.
func commandKey(app spec.AppID) string { return "scram/cmd/" + string(app) }

// stateKey is the stable-storage key of the kernel's persisted state.
const stateKey = "scram/state"

// validateCommandRecord checks that a snapshotted configuration_status
// record of rs.Apps[i] decodes as a command, with the decoder the
// applications' frame-path reads use. Restore uses it to reject snapshots
// carrying corrupt command variables: a standby taking over from such a
// snapshot would command applications from garbage, so takeover must fail
// instead.
func validateCommandRecord(rs *spec.ReconfigSpec, i int, raw []byte) error {
	if _, err := decodeCommand(raw, rs, &rs.Apps[i]); err != nil {
		return fmt.Errorf("scram: snapshot holds corrupt command record for %q: %w", rs.Apps[i].ID, err)
	}
	return nil
}

// unmarshalState decodes a persisted kernel state.
func unmarshalState(raw []byte, rs *spec.ReconfigSpec, st *kernelState) error {
	if err := decodeState(raw, rs, st); err != nil {
		return fmt.Errorf("scram: decoding persisted kernel state: %w", err)
	}
	return nil
}

// ReadCommand reads app's most recently committed command. The second
// result is false if no command has ever been committed (the boot frames
// before the kernel's first commit).
func ReadCommand(st *stable.Store, app spec.AppID) (Command, bool, error) {
	raw, ok := st.Get(commandKey(app))
	if !ok {
		return Command{}, false, nil
	}
	cmd, err := decodeCommand(raw, nil, nil)
	if err != nil {
		return Command{}, false, fmt.Errorf("scram: reading command for %q: %w", app, err)
	}
	return cmd, true, nil
}

// CommandReader reads one application's configuration_status variable each
// frame. It caches the raw committed record and its decoded form, so the
// steady state — where the command does not change for millions of frames —
// costs a byte comparison instead of a decode per frame. The cache is keyed
// on the record bytes, not the store: a takeover that moves the record to a
// new store re-decodes only if the bytes differ. A decode interns the
// command's identifiers against the specification, so reading a changed
// command allocates nothing either.
type CommandReader struct {
	rs  *spec.ReconfigSpec
	app *spec.App
	id  spec.AppID
	key string
	buf []byte // scratch for the committed read
	raw []byte // record bytes backing the cached decode
	cmd Command
	ok  bool
}

// NewCommandReader returns a reader for the command variable of app, an
// application of rs.
func NewCommandReader(rs *spec.ReconfigSpec, app spec.AppID) *CommandReader {
	a, _ := rs.AppByID(app)
	return &CommandReader{rs: rs, app: a, id: app, key: commandKey(app)}
}

// Read returns app's most recently committed command, with the same contract
// as ReadCommand.
func (cr *CommandReader) Read(st *stable.Store) (Command, bool, error) {
	var present bool
	cr.buf, present = st.GetInto(cr.buf, cr.key)
	if !present {
		return Command{}, false, nil
	}
	if cr.ok && bytes.Equal(cr.buf, cr.raw) {
		return cr.cmd, true, nil
	}
	cmd, err := decodeCommand(cr.buf, cr.rs, cr.app)
	if err != nil {
		return Command{}, false, fmt.Errorf("scram: reading command for %q: %w", cr.id, err)
	}
	cr.cmd = cmd
	//lint:allow allocfree bounded: the cache grows to the largest command record once, then only refills
	cr.raw = append(cr.raw[:0], cr.buf...)
	cr.ok = true
	return cmd, true, nil
}
