package avionics

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/spec"
)

// Application and specification identifiers of the autopilot.
const (
	// AppAutopilot is the autopilot application.
	AppAutopilot spec.AppID = "autopilot"
	// SpecAPFull is the primary specification: altitude hold, heading
	// hold, climb to altitude, and turn to heading.
	SpecAPFull spec.SpecID = "ap-full"
	// SpecAPAltHold is the reduced specification: altitude hold only,
	// with substantially lower processing and memory needs.
	SpecAPAltHold spec.SpecID = "ap-alt-hold"
)

// Targets are the autopilot's commanded objectives. Climb and Turn select
// the capture services (climb to altitude, turn to heading); once captured,
// the autopilot reverts to the corresponding hold service.
type Targets struct {
	AltFt  float64 `json:"alt_ft"`
	HdgDeg float64 `json:"hdg_deg"`
	Climb  bool    `json:"climb"`
	Turn   bool    `json:"turn"`
}

// Autopilot control constants.
const (
	// apMaxVSFpm limits commanded vertical speed in hold mode.
	apMaxVSFpm = 800.0
	// apClimbVSFpm is the commanded rate for climb-to-altitude.
	apClimbVSFpm = 1200.0
	// apCaptureAltFt is the altitude-capture band ending a climb.
	apCaptureAltFt = 100.0
	// apCaptureHdgDeg is the heading-capture band ending a turn.
	apCaptureHdgDeg = 3.0
	// apMaxBankDeg limits commanded bank.
	apMaxBankDeg = 25.0
)

// Autopilot is the autopilot application. Under SpecAPFull it serves both
// axes; under SpecAPAltHold it serves the vertical axis only. Targets are
// persisted to stable storage every frame, so a processor failure or a
// migration preserves the commanded objectives.
type Autopilot struct {
	targets Targets

	engaged bool
	halted  bool
	sensors AircraftState
	haveSns bool

	pidVS   *pid
	pidBank *pid
}

// NewAutopilot returns an autopilot with the given initial targets,
// disengaged until its first normal frame.
func NewAutopilot(initial Targets) *Autopilot {
	return &Autopilot{
		targets: initial,
		pidVS:   newPID(0.0003, 0.0001, 0, 1),
		pidBank: newPID(0.8, 0.2, 0, 1),
	}
}

// ID implements core.App.
func (a *Autopilot) ID() spec.AppID { return AppAutopilot }

// Engaged reports whether the autopilot is currently engaged.
func (a *Autopilot) Engaged() bool {
	return a.engaged
}

// Targets returns the current objectives.
func (a *Autopilot) Targets() Targets {
	return a.targets
}

// SetTargets updates the objectives (the pilot's mode-control panel). Safe
// to call between frames.
func (a *Autopilot) SetTargets(t Targets) {
	a.targets = t
}

// Step implements core.App: one control cycle.
func (a *Autopilot) Step(env *core.FrameEnv) error {
	a.halted = false
	a.engaged = true // the autopilot re-engages when normal service resumes

	if env.Bus != nil {
		for _, msg := range env.Bus.Receive() {
			if msg.Topic != TopicSensors {
				continue
			}
			if err := json.Unmarshal(msg.Payload, &a.sensors); err != nil {
				return fmt.Errorf("avionics: autopilot decoding sensors: %w", err)
			}
			a.haveSns = true
		}
	}
	if !a.haveSns {
		// No sensor sample yet (boot frame): command neutral.
		return a.publish(env, APCommand{Engaged: true})
	}

	dt := env.FrameLen.Seconds()
	cmd := APCommand{Engaged: true}

	// Vertical axis: altitude hold or climb to altitude.
	altErr := a.targets.AltFt - a.sensors.AltFt
	if a.targets.Climb && math.Abs(altErr) <= apCaptureAltFt {
		a.targets.Climb = false // altitude captured: revert to hold
	}
	var desiredVS float64
	if a.targets.Climb {
		desiredVS = math.Copysign(apClimbVSFpm, altErr)
	} else {
		desiredVS = clamp(altErr*4, -apMaxVSFpm, apMaxVSFpm)
	}
	// Feedforward the steady-state elevator for the desired rate; the PID
	// trims the residual.
	cmd.Pitch = clamp(desiredVS/pitchAuthorityFpm+a.pidVS.Update(desiredVS-a.sensors.VSFpm, dt), -1, 1)

	// Lateral axis: heading hold / turn to heading, full service only.
	if env.Spec == SpecAPFull {
		hdgErr := wrapDeg180(a.targets.HdgDeg - a.sensors.HeadingDeg)
		if a.targets.Turn && math.Abs(hdgErr) <= apCaptureHdgDeg {
			a.targets.Turn = false // heading captured: revert to hold
		}
		desiredBank := clamp(hdgErr*1.5, -apMaxBankDeg, apMaxBankDeg)
		// Feedforward the aileron that holds the desired bank against
		// roll damping; the PID trims the residual.
		ff := desiredBank * rollDampPerS / maxRollRateDps
		cmd.Roll = clamp(ff+a.pidBank.Update((desiredBank-a.sensors.BankDeg)/apMaxBankDeg, dt), -1, 1)
	}

	if err := a.persist(env); err != nil {
		return err
	}
	return a.publish(env, cmd)
}

// persist checkpoints targets and controller state to stable storage.
func (a *Autopilot) persist(env *core.FrameEnv) error {
	if err := env.Store.PutJSON("targets", a.targets); err != nil {
		return err
	}
	vsI, vsE := a.pidVS.State()
	bkI, bkE := a.pidBank.State()
	return env.Store.PutJSON("pids", [4]float64{vsI, vsE, bkI, bkE})
}

func (a *Autopilot) publish(env *core.FrameEnv, cmd APCommand) error {
	if env.Bus == nil {
		return nil
	}
	payload, err := json.Marshal(cmd)
	if err != nil {
		return fmt.Errorf("avionics: autopilot encoding command: %w", err)
	}
	if err := env.Bus.Publish(TopicAPCmd, payload); err != nil {
		return fmt.Errorf("avionics: autopilot publishing command: %w", err)
	}
	return nil
}

// Halt implements core.App: cease operation (the postcondition of section
// 7.1). The last committed targets remain in stable storage.
func (a *Autopilot) Halt(env *core.FrameEnv) (bool, error) {
	a.halted = true
	a.engaged = false
	return true, nil
}

// Prepare implements core.App: recover the commanded targets from stable
// storage (which migration carries across processors) and reset the
// controllers for the target specification.
func (a *Autopilot) Prepare(env *core.FrameEnv, target spec.SpecID) (bool, error) {
	var saved Targets
	if ok, err := env.Store.GetJSON("targets", &saved); err != nil {
		return false, err
	} else if ok {
		a.targets = saved
	}
	a.pidVS.Reset()
	a.pidBank.Reset()
	return true, nil
}

// Init implements core.App: establish the precondition — the autopilot is
// disengaged when a new configuration is entered (section 7.1).
func (a *Autopilot) Init(env *core.FrameEnv, target spec.SpecID) (bool, error) {
	a.engaged = false
	a.haveSns = false
	return true, a.publish(env, APCommand{Engaged: false})
}

// Postcondition implements core.App.
func (a *Autopilot) Postcondition() bool {
	return a.halted
}

// Precondition implements core.App: disengaged on entry.
func (a *Autopilot) Precondition(spec.SpecID) bool {
	return !a.engaged
}
