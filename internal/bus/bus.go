// Package bus simulates the ultra-dependable, real-time data bus the
// reconfiguration architecture assumes (section 3 of Strunk, Knight and
// Aiello, DSN 2005): a time-triggered bus in the style of the Time-Triggered
// Architecture, carrying application traffic and sensor/actuator traffic in
// statically scheduled TDMA slots.
//
// The simulation is frame-synchronous: endpoints stage messages during a
// frame (bounded by their slot's capacity), and the bus delivers all staged
// messages to subscriber inboxes at the frame boundary, in slot order. The
// paper assumes the bus itself is ultra-dependable, so no loss or
// reordering occurs by default; a seeded fault plan exists for robustness
// experiments beyond the paper's assumptions.
package bus

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Errors reported by this package.
var (
	// ErrUnknownEndpoint reports an operation naming an unattached
	// endpoint.
	ErrUnknownEndpoint = errors.New("bus: unknown endpoint")
	// ErrDuplicateEndpoint reports an Attach with an identifier already
	// in use.
	ErrDuplicateEndpoint = errors.New("bus: duplicate endpoint")
	// ErrNoSlot reports a Publish from an endpoint that owns no TDMA
	// slot.
	ErrNoSlot = errors.New("bus: endpoint owns no slot")
	// ErrSlotOverflow reports a Publish exceeding the endpoint's slot
	// capacity for the current frame.
	ErrSlotOverflow = errors.New("bus: slot capacity exceeded")
)

// EndpointID identifies a bus endpoint (an application, the SCRAM, or a
// sensor/actuator interface unit).
type EndpointID string

// Message is one bus transfer.
type Message struct {
	// From is the publishing endpoint.
	From EndpointID
	// Topic is the publish/subscribe channel.
	Topic string
	// Payload is the message body.
	Payload []byte
	// SentFrame is the frame in which the message was staged; it is
	// delivered at that frame's boundary and readable in the next frame,
	// mirroring the one-frame latency of a TDMA round.
	SentFrame int64
}

// Slot is one entry of the static TDMA schedule: which endpoint owns it and
// how many messages the endpoint may stage per frame.
type Slot struct {
	Owner EndpointID
	// MaxMessages bounds the owner's traffic per frame. Zero means an
	// unconstrained simulation slot.
	MaxMessages int
}

// Schedule is the static TDMA schedule for one frame. Delivery order
// follows schedule order, making the simulation deterministic.
type Schedule []Slot

// Bus is a simulated time-triggered bus. Create one with New. A Bus and its
// endpoints belong to one system, and so to one goroutine at a time.
type Bus struct {
	schedule  Schedule
	slotOf    map[EndpointID]Slot
	endpoints map[EndpointID]*Endpoint
	order     []EndpointID
	fault     *FaultPlan
	delayed   []Message
	// Delivery and fault accounting lives in a telemetry registry (a
	// private one until Instrument attaches the system's); per-topic
	// fault counters are resolved lazily as topics appear.
	reg                *telemetry.Registry
	tel                telemetry.Sink
	delivered, dropped *telemetry.Counter
	topicFaults        map[string]*topicFaultCounters
}

// topicFaultCounters are one topic's injected-fault counters.
type topicFaultCounters struct {
	drop, duplicate, delay *telemetry.Counter
}

// New returns a bus with the given static schedule. Multiple slots per owner
// are allowed; their capacities add.
func New(schedule Schedule) *Bus {
	slotOf := make(map[EndpointID]Slot)
	for _, s := range schedule {
		cur, ok := slotOf[s.Owner]
		if !ok {
			slotOf[s.Owner] = s
			continue
		}
		cur.MaxMessages += s.MaxMessages
		slotOf[s.Owner] = cur
	}
	b := &Bus{
		schedule:  schedule,
		slotOf:    slotOf,
		endpoints: make(map[EndpointID]*Endpoint),
		tel:       telemetry.NopSink{},
	}
	b.bindMetrics(telemetry.NewRegistry())
	return b
}

// bindMetrics (re)resolves the bus counters in reg.
func (b *Bus) bindMetrics(reg *telemetry.Registry) {
	prevDelivered, prevDropped := int64(0), int64(0)
	if b.delivered != nil {
		prevDelivered, prevDropped = b.delivered.Value(), b.dropped.Value()
	}
	b.reg = reg
	b.delivered = reg.Counter("bus/delivered")
	b.dropped = reg.Counter("bus/dropped")
	b.delivered.Add(prevDelivered)
	b.dropped.Add(prevDropped)
	b.topicFaults = make(map[string]*topicFaultCounters)
}

// Instrument re-points the bus counters at the shared registry (carrying
// over counts accumulated so far) and attaches the flight recorder, which
// subsequently receives one event per injected fault action.
func (b *Bus) Instrument(reg *telemetry.Registry, rec *telemetry.Recorder) {
	b.bindMetrics(reg)
	b.tel = telemetry.OrNop(rec)
}

// topicFault returns the per-topic fault counters, resolving them on first
// use.
func (b *Bus) topicFault(topic string) *topicFaultCounters {
	tc, ok := b.topicFaults[topic]
	if !ok {
		tc = &topicFaultCounters{
			drop:      b.reg.Counter("bus/fault/" + topic + "/drop"),
			duplicate: b.reg.Counter("bus/fault/" + topic + "/duplicate"),
			delay:     b.reg.Counter("bus/fault/" + topic + "/delay"),
		}
		b.topicFaults[topic] = tc
	}
	return tc
}

// recordFault mirrors one injected fault action into the flight recorder.
func (b *Bus) recordFault(action string, msg Message, frameNum int64) {
	if !b.tel.Enabled() {
		return
	}
	b.tel.Record(telemetry.Event{
		Frame:  frameNum,
		Kind:   telemetry.KindBusFault,
		Phase:  action,
		Host:   string(msg.From),
		Detail: "topic " + msg.Topic,
	})
}

// Attach creates and registers an endpoint.
func (b *Bus) Attach(id EndpointID) (*Endpoint, error) {
	if _, dup := b.endpoints[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEndpoint, id)
	}
	ep := &Endpoint{id: id, bus: b, topics: make(map[string]bool)}
	b.endpoints[id] = ep
	b.order = append(b.order, id)
	sort.Slice(b.order, func(i, j int) bool { return b.order[i] < b.order[j] })
	return ep, nil
}

// Detach removes an endpoint (for example when its hosting processor is
// powered off permanently). Pending inbox contents are dropped.
func (b *Bus) Detach(id EndpointID) error {
	if _, ok := b.endpoints[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, id)
	}
	delete(b.endpoints, id)
	for i, e := range b.order {
		if e == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return nil
}

// Endpoint returns a previously attached endpoint.
func (b *Bus) Endpoint(id EndpointID) (*Endpoint, error) {
	ep, ok := b.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEndpoint, id)
	}
	return ep, nil
}

// SetFaultPlan installs a seeded fault plan consulted once per staged
// message at delivery time. The paper assumes an ultra-dependable bus, so a
// plan exists only for experiments beyond the paper's fault model. Passing
// nil removes the plan.
func (b *Bus) SetFaultPlan(plan *FaultPlan) {
	b.fault = plan
}

// Stats returns the counts of delivered and dropped messages, read from the
// telemetry registry backing the bus.
func (b *Bus) Stats() (delivered, dropped int64) {
	return b.delivered.Value(), b.dropped.Value()
}

// DeliverFrame moves every message staged during the given frame into the
// inboxes of subscribing endpoints. Delivery follows TDMA slot order, then
// staging order within an endpoint, so results are deterministic. The frame
// runtime calls DeliverFrame from a frame-end hook.
func (b *Bus) DeliverFrame(frameNum int64) {

	// Messages delayed at the previous frame boundary go out first, before
	// this frame's traffic, restamped with the frame that finally carried
	// them. A message is delayed at most once: delayed traffic is not run
	// through the fault plan again.
	carried := b.delayed
	b.delayed = nil
	for _, msg := range carried {
		msg.SentFrame = frameNum
		b.broadcast(msg)
	}

	// Collect sending endpoints in slot order, without duplicates.
	var senders []*Endpoint
	seen := make(map[EndpointID]bool)
	for _, slot := range b.schedule {
		if seen[slot.Owner] {
			continue
		}
		seen[slot.Owner] = true
		if ep, ok := b.endpoints[slot.Owner]; ok {
			senders = append(senders, ep)
		}
	}
	// Endpoints without slots may still have staged nothing; include any
	// stragglers (endpoints attached but scheduled under a wildcard
	// simulation setup) in ID order for determinism.
	for _, id := range b.order {
		if !seen[id] {
			senders = append(senders, b.endpoints[id])
		}
	}

	for _, sender := range senders {
		staged := sender.takeStaged()
		for _, msg := range staged {
			msg.SentFrame = frameNum
			action := actDeliver
			if b.fault != nil {
				action = b.fault.decide(msg)
			}
			switch action {
			case actDrop:
				b.dropped.Inc()
				b.topicFault(msg.Topic).drop.Inc()
				b.recordFault("drop", msg, frameNum)
			case actDelay:
				b.delayed = append(b.delayed, msg)
				b.topicFault(msg.Topic).delay.Inc()
				b.recordFault("delay", msg, frameNum)
			case actDuplicate:
				b.broadcast(msg)
				b.broadcast(msg)
				b.topicFault(msg.Topic).duplicate.Inc()
				b.recordFault("duplicate", msg, frameNum)
			default:
				b.broadcast(msg)
			}
		}
	}
}

// broadcast delivers one message to every subscriber.
func (b *Bus) broadcast(msg Message) {
	for _, id := range b.order {
		rcpt := b.endpoints[id]
		if rcpt.subscribed(msg.Topic) {
			rcpt.deliver(msg)
			b.delivered.Inc()
		}
	}
}

// Endpoint is one attachment point on the bus.
type Endpoint struct {
	id  EndpointID
	bus *Bus

	topics map[string]bool
	staged []Message
	inbox  []Message
}

// ID returns the endpoint identifier.
func (e *Endpoint) ID() EndpointID { return e.id }

// Publish stages a message on topic for delivery at the frame boundary. It
// fails if the endpoint owns no TDMA slot or the slot's per-frame capacity
// is exhausted. The payload is copied.
func (e *Endpoint) Publish(topic string, payload []byte) error {
	slot, ok := e.bus.slotOf[e.id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSlot, e.id)
	}
	if slot.MaxMessages > 0 && len(e.staged) >= slot.MaxMessages {
		return fmt.Errorf("%w: %q staged %d, slot capacity %d", ErrSlotOverflow, e.id, len(e.staged), slot.MaxMessages)
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	e.staged = append(e.staged, Message{From: e.id, Topic: topic, Payload: cp})
	return nil
}

// Subscribe adds a topic subscription. Subscribing twice is a no-op.
func (e *Endpoint) Subscribe(topic string) {
	e.topics[topic] = true
}

// Unsubscribe removes a topic subscription.
func (e *Endpoint) Unsubscribe(topic string) {
	delete(e.topics, topic)
}

// Receive drains and returns the endpoint's inbox: every message delivered
// at earlier frame boundaries and not yet read.
func (e *Endpoint) Receive() []Message {
	out := e.inbox
	e.inbox = nil
	return out
}

func (e *Endpoint) takeStaged() []Message {
	out := e.staged
	e.staged = nil
	return out
}

func (e *Endpoint) subscribed(topic string) bool {
	return e.topics[topic]
}

func (e *Endpoint) deliver(msg Message) {
	e.inbox = append(e.inbox, msg)
}
