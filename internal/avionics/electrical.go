package avionics

import (
	"fmt"

	"repro/internal/envmon"
	"repro/internal/frame"
	"repro/internal/spec"
)

// Environment factors and states of the electrical system model.
const (
	// FactorAlt1 and FactorAlt2 are the two alternators' health factors.
	FactorAlt1 envmon.Factor = "alt1"
	FactorAlt2 envmon.Factor = "alt2"
	// FactorBattery carries the battery's charge band: "ok" or "low".
	FactorBattery envmon.Factor = "battery"

	// AltOK and AltFailed are the alternator factor values.
	AltOK     = "ok"
	AltFailed = "failed"
)

// Power environment states (the discrete states the choice table is defined
// over).
const (
	// EnvPowerFull: both alternators operating; full platform power.
	EnvPowerFull spec.EnvState = "power-full"
	// EnvPowerReduced: one alternator lost; below the full-operation
	// threshold.
	EnvPowerReduced spec.EnvState = "power-reduced"
	// EnvPowerBattery: both alternators lost; battery is the only source.
	EnvPowerBattery spec.EnvState = "power-battery"
)

// Classifier abstracts the electrical factors into the power environment
// state, exactly as section 7 describes: loss of one alternator reduces
// available power below the full-operation threshold; loss of both leaves
// the battery as the only source.
func Classifier(f map[envmon.Factor]string) spec.EnvState {
	ok := 0
	for _, alt := range []envmon.Factor{FactorAlt1, FactorAlt2} {
		if f[alt] == AltOK {
			ok++
		}
	}
	switch ok {
	case 2:
		return EnvPowerFull
	case 1:
		return EnvPowerReduced
	default:
		return EnvPowerBattery
	}
}

// Electrical models the electrical power generation system: two alternators
// and a battery. One alternator provides primary vehicle power; the second
// is a spare that normally charges the battery, the emergency source. The
// electrical system "operates independently of the reconfigurable system; it
// merely provides the system details of its state" — here by maintaining
// environment factors from a commit hook, once per frame.
type Electrical struct {
	env *envmon.Environment

	chargePC float64 // battery charge, percent
}

// Battery model constants.
const (
	// batteryDrainPCPerS is the discharge rate on battery power.
	batteryDrainPCPerS = 0.5
	// batteryChargePCPerS is the recharge rate with an alternator
	// available.
	batteryChargePCPerS = 0.2
	// batteryLowPC is the threshold below which the battery reports low.
	batteryLowPC = 25.0
)

// NewElectrical returns a fully charged electrical system publishing into
// env. Both alternator factors must already exist in the environment (they
// are failure-injection inputs, not outputs of this model).
func NewElectrical(env *envmon.Environment) *Electrical {
	return &Electrical{env: env, chargePC: 100}
}

// Charge returns the battery charge in percent.
func (e *Electrical) Charge() float64 {
	return e.chargePC
}

// Hook advances the battery model one frame and refreshes the battery
// factor. Register it as a system commit hook so factor updates land
// deterministically between frames.
func (e *Electrical) Hook(ctx frame.Context) error {
	alt1, _ := e.env.Get(FactorAlt1)
	alt2, _ := e.env.Get(FactorAlt2)
	dt := ctx.Len.Seconds()

	if alt1 != AltOK && alt2 != AltOK {
		e.chargePC -= batteryDrainPCPerS * dt
	} else {
		e.chargePC += batteryChargePCPerS * dt
	}
	e.chargePC = clamp(e.chargePC, 0, 100)
	band := "ok"
	if e.chargePC < batteryLowPC {
		band = "low"
	}

	e.env.Set(FactorBattery, band)
	return nil
}

// String describes the electrical state for logs.
func (e *Electrical) String() string {
	alt1, _ := e.env.Get(FactorAlt1)
	alt2, _ := e.env.Get(FactorAlt2)
	return fmt.Sprintf("electrical{alt1=%s alt2=%s battery=%.1f%%}", alt1, alt2, e.Charge())
}
