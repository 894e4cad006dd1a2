// Package avionics implements the paper's section 7 example instantiation:
// a hypothetical avionics system representative of a modern UAV or
// general-aviation aircraft. It provides an autopilot application (altitude
// hold, heading hold, climb-to-altitude, and turn-to-heading in its primary
// specification; altitude hold only in its reduced specification), a flight
// control system (augmented control / direct control), an electrical system
// model (two alternators and a battery) whose state is the environment that
// drives reconfiguration, a point-mass aircraft dynamics model, sensor and
// actuator traffic over the time-triggered bus, and the three system
// configurations of the paper: Full Service, Reduced Service, and Minimal
// Service.
package avionics

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/frame"
)

// Bus topics of the avionics system.
const (
	// TopicSensors carries AircraftState samples from the sensor suite.
	TopicSensors = "sensors/state"
	// TopicAPCmd carries APCommand messages from the autopilot to the
	// FCS.
	TopicAPCmd = "ap/cmd"
	// TopicSurfaces carries Surfaces commands from the FCS to the
	// control-surface actuators.
	TopicSurfaces = "fcs/surfaces"
)

// AircraftState is the point-mass aircraft state.
type AircraftState struct {
	// AltFt is the altitude in feet.
	AltFt float64 `json:"alt_ft"`
	// VSFpm is the vertical speed in feet per minute.
	VSFpm float64 `json:"vs_fpm"`
	// HeadingDeg is the heading in degrees [0, 360).
	HeadingDeg float64 `json:"heading_deg"`
	// BankDeg is the bank angle in degrees (positive right).
	BankDeg float64 `json:"bank_deg"`
	// AirspeedKts is the true airspeed in knots.
	AirspeedKts float64 `json:"airspeed_kts"`
}

// Surfaces is a control-surface command: normalized deflections in [-1, 1].
type Surfaces struct {
	Elevator float64 `json:"elevator"`
	Aileron  float64 `json:"aileron"`
}

// Centered reports whether both surfaces are within eps of neutral —
// the FCS precondition for entering a new configuration (section 7.1).
func (s Surfaces) Centered(eps float64) bool {
	return math.Abs(s.Elevator) <= eps && math.Abs(s.Aileron) <= eps
}

// Dynamics integrates the aircraft model. It consumes Surfaces commands from
// the bus and advances the state once per frame from a commit hook, so every
// task within a frame observes a consistent state.
type Dynamics struct {
	ep *bus.Endpoint

	state    AircraftState
	surfaces Surfaces
}

// Aircraft model constants: deliberately simple, stable, and representative.
const (
	// maxRollRateDps is the roll rate at full aileron, degrees/second.
	maxRollRateDps = 20.0
	// rollDampPerS pulls the bank back toward level.
	rollDampPerS = 0.8
	// maxBankDeg limits the achievable bank angle.
	maxBankDeg = 45.0
	// pitchAuthorityFpm is the commanded vertical speed at full elevator.
	pitchAuthorityFpm = 3000.0
	// vsLagPerS is the first-order lag of vertical speed toward command.
	vsLagPerS = 1.2
)

// NewDynamics attaches the dynamics model to the bus (subscribing to surface
// commands) with the given initial state.
func NewDynamics(b *bus.Bus, initial AircraftState) (*Dynamics, error) {
	ep, err := b.Attach("dynamics")
	if err != nil {
		return nil, fmt.Errorf("avionics: attaching dynamics: %w", err)
	}
	ep.Subscribe(TopicSurfaces)
	return &Dynamics{ep: ep, state: initial}, nil
}

// State returns the current aircraft state.
func (d *Dynamics) State() AircraftState {
	return d.state
}

// LastSurfaces returns the most recently applied surface command.
func (d *Dynamics) LastSurfaces() Surfaces {
	return d.surfaces
}

// Hook advances the model by one frame: it applies the latest surface
// command delivered over the bus, then integrates the equations of motion.
// Register it as a system commit hook.
func (d *Dynamics) Hook(ctx frame.Context) error {
	for _, msg := range d.ep.Receive() {
		var s Surfaces
		if err := json.Unmarshal(msg.Payload, &s); err != nil {
			return fmt.Errorf("avionics: decoding surfaces: %w", err)
		}
		d.surfaces = s
	}
	dt := ctx.Len.Seconds()
	st := &d.state

	// Roll axis: aileron drives bank; damping pulls toward level.
	bankRate := d.surfaces.Aileron*maxRollRateDps - st.BankDeg*rollDampPerS
	st.BankDeg = clamp(st.BankDeg+bankRate*dt, -maxBankDeg, maxBankDeg)

	// Heading: the standard coordinated-turn relation,
	// rate(deg/s) = 1091 * tan(bank) / TAS(kts).
	if st.AirspeedKts > 1 {
		turnRate := 1091 * math.Tan(st.BankDeg*math.Pi/180) / st.AirspeedKts
		st.HeadingDeg = wrapDeg360(st.HeadingDeg + turnRate*dt)
	}

	// Pitch axis: elevator commands vertical speed with first-order lag.
	cmdVS := d.surfaces.Elevator * pitchAuthorityFpm
	st.VSFpm += (cmdVS - st.VSFpm) * vsLagPerS * dt
	st.AltFt += st.VSFpm * dt / 60

	return nil
}

// SensorSuite samples the aircraft state each frame and publishes it on the
// bus — the sensor interface units of the architecture. It implements
// frame.Task.
type SensorSuite struct {
	ep  *bus.Endpoint
	dyn *Dynamics
}

// NewSensorSuite attaches the sensor suite to the bus.
func NewSensorSuite(b *bus.Bus, dyn *Dynamics) (*SensorSuite, error) {
	ep, err := b.Attach("sensors")
	if err != nil {
		return nil, fmt.Errorf("avionics: attaching sensors: %w", err)
	}
	return &SensorSuite{ep: ep, dyn: dyn}, nil
}

// TaskID implements frame.Task.
func (s *SensorSuite) TaskID() string { return "avionics:sensors" }

// Tick publishes the current aircraft state.
func (s *SensorSuite) Tick(frame.Context) error {
	payload, err := json.Marshal(s.dyn.State())
	if err != nil {
		return fmt.Errorf("avionics: encoding sensor sample: %w", err)
	}
	if err := s.ep.Publish(TopicSensors, payload); err != nil {
		return fmt.Errorf("avionics: publishing sensor sample: %w", err)
	}
	return nil
}
