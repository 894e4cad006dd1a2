package bus

import (
	"math/rand"
)

// FaultRates are per-message fault probabilities applied at delivery time.
// The rates are mutually exclusive outcomes of a single draw, so their sum
// must not exceed 1; the remainder is the probability of clean delivery.
type FaultRates struct {
	// Drop is the probability the message is lost.
	Drop float64 `json:"drop"`
	// Duplicate is the probability the message is delivered twice in the
	// same frame (a retransmission artefact).
	Duplicate float64 `json:"duplicate"`
	// Delay is the probability the message slips one frame: it is withheld
	// and delivered at the next frame boundary instead.
	Delay float64 `json:"delay"`
}

// Zero reports whether the rates inject no faults.
func (r FaultRates) Zero() bool {
	return r.Drop == 0 && r.Duplicate == 0 && r.Delay == 0
}

// FaultStats counts the faults a FaultPlan injected.
type FaultStats struct {
	// Dropped counts messages lost.
	Dropped int64 `json:"dropped"`
	// Duplicated counts messages delivered twice.
	Duplicated int64 `json:"duplicated"`
	// Delayed counts messages slipped by one frame.
	Delayed int64 `json:"delayed"`
}

// faultAction is the outcome of one delivery-time draw.
type faultAction int

const (
	actDeliver faultAction = iota
	actDrop
	actDuplicate
	actDelay
)

// FaultPlan is a seeded, per-topic message fault injector for the bus. The
// paper assumes an ultra-dependable bus, so a plan exists only for robustness
// experiments beyond the paper's fault model: equal seeds and equal traffic
// give equal fault sequences, making campaign runs reproducible.
type FaultPlan struct {
	rng      *rand.Rand
	def      FaultRates
	perTopic map[string]FaultRates
	stats    FaultStats
}

// NewFaultPlan returns an empty plan (no faults) with a seeded generator.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:      rand.New(rand.NewSource(seed)),
		perTopic: make(map[string]FaultRates),
	}
}

// SetDefault installs the rates applied to topics without an explicit entry.
func (p *FaultPlan) SetDefault(r FaultRates) {
	p.def = r
}

// SetTopic overrides the rates for one topic.
func (p *FaultPlan) SetTopic(topic string, r FaultRates) {
	p.perTopic[topic] = r
}

// Stats returns the injected-fault counts so far.
func (p *FaultPlan) Stats() FaultStats {
	return p.stats
}

// decide draws the fate of one message.
func (p *FaultPlan) decide(msg Message) faultAction {
	rates, ok := p.perTopic[msg.Topic]
	if !ok {
		rates = p.def
	}
	if rates.Zero() {
		return actDeliver
	}
	u := p.rng.Float64()
	switch {
	case u < rates.Drop:
		p.stats.Dropped++
		return actDrop
	case u < rates.Drop+rates.Duplicate:
		p.stats.Duplicated++
		return actDuplicate
	case u < rates.Drop+rates.Duplicate+rates.Delay:
		p.stats.Delayed++
		return actDelay
	default:
		return actDeliver
	}
}
