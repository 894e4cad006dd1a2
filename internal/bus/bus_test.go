package bus

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/frame"
)

func twoEndpointBus(t *testing.T) (*Bus, *Endpoint, *Endpoint) {
	t.Helper()
	b := New(Schedule{
		{Owner: "a", MaxMessages: 4},
		{Owner: "b", MaxMessages: 4},
	})
	a, err := b.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	return b, a, bb
}

func TestPublishDeliverReceive(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("telemetry")

	if err := a.Publish("telemetry", []byte("alt=1000")); err != nil {
		t.Fatal(err)
	}
	// Not yet delivered: delivery happens at the frame boundary.
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Fatalf("received %d messages before delivery", len(msgs))
	}
	b.DeliverFrame(0)
	msgs := bb.Receive()
	if len(msgs) != 1 {
		t.Fatalf("received %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.From != "a" || m.Topic != "telemetry" || string(m.Payload) != "alt=1000" || m.SentFrame != 0 {
		t.Errorf("message = %+v", m)
	}
	// Inbox drained.
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Errorf("inbox not drained: %d", len(msgs))
	}
	delivered, dropped := b.Stats()
	if delivered != 1 || dropped != 0 {
		t.Errorf("stats = %d, %d; want 1, 0", delivered, dropped)
	}
}

func TestNoSubscriberNoDelivery(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	if err := a.Publish("lonely", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Errorf("unsubscribed endpoint received %d messages", len(msgs))
	}
}

func TestUnsubscribe(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	bb.Unsubscribe("t")
	if err := a.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Errorf("unsubscribed endpoint received %d messages", len(msgs))
	}
}

func TestSelfDelivery(t *testing.T) {
	b, a, _ := twoEndpointBus(t)
	a.Subscribe("loop")
	if err := a.Publish("loop", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	if msgs := a.Receive(); len(msgs) != 1 {
		t.Errorf("self delivery got %d messages, want 1", len(msgs))
	}
}

func TestSlotCapacity(t *testing.T) {
	b := New(Schedule{{Owner: "a", MaxMessages: 2}})
	a, err := b.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := a.Publish("t", nil); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := a.Publish("t", nil); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("overflow publish = %v, want ErrSlotOverflow", err)
	}
	// Capacity resets after delivery.
	b.DeliverFrame(0)
	if err := a.Publish("t", nil); err != nil {
		t.Fatalf("publish after delivery: %v", err)
	}
}

func TestMultipleSlotsAddCapacity(t *testing.T) {
	b := New(Schedule{
		{Owner: "a", MaxMessages: 1},
		{Owner: "a", MaxMessages: 1},
	})
	a, err := b.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := a.Publish("t", nil); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := a.Publish("t", nil); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("third publish = %v, want ErrSlotOverflow", err)
	}
}

func TestPublishWithoutSlot(t *testing.T) {
	b := New(Schedule{{Owner: "a", MaxMessages: 1}})
	noSlot, err := b.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := noSlot.Publish("t", nil); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("slotless publish = %v, want ErrNoSlot", err)
	}
}

func TestAttachDetachErrors(t *testing.T) {
	b := New(Schedule{})
	if _, err := b.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach("a"); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Errorf("duplicate attach = %v", err)
	}
	if _, err := b.Endpoint("a"); err != nil {
		t.Errorf("Endpoint(a) = %v", err)
	}
	if _, err := b.Endpoint("ghost"); !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("Endpoint(ghost) = %v", err)
	}
	if err := b.Detach("a"); err != nil {
		t.Errorf("Detach(a) = %v", err)
	}
	if err := b.Detach("a"); !errors.Is(err, ErrUnknownEndpoint) {
		t.Errorf("double detach = %v", err)
	}
}

func TestDeterministicSlotOrderDelivery(t *testing.T) {
	// Schedule order, not attach order, determines delivery order.
	b := New(Schedule{
		{Owner: "second", MaxMessages: 1},
		{Owner: "first", MaxMessages: 1},
	})
	first, _ := b.Attach("first")
	second, _ := b.Attach("second")
	sink, err := b.Attach("sink")
	if err != nil {
		t.Fatal(err)
	}
	sink.Subscribe("t")

	if err := first.Publish("t", []byte("from-first")); err != nil {
		t.Fatal(err)
	}
	if err := second.Publish("t", []byte("from-second")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	msgs := sink.Receive()
	if len(msgs) != 2 {
		t.Fatalf("got %d messages, want 2", len(msgs))
	}
	if string(msgs[0].Payload) != "from-second" || string(msgs[1].Payload) != "from-first" {
		t.Errorf("delivery order = [%s, %s], want slot order [from-second, from-first]",
			msgs[0].Payload, msgs[1].Payload)
	}
}

func TestPayloadCopied(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	payload := []byte("orig")
	if err := a.Publish("t", payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	b.DeliverFrame(0)
	msgs := bb.Receive()
	if string(msgs[0].Payload) != "orig" {
		t.Errorf("payload aliased: %q", msgs[0].Payload)
	}
}

// TestFaultHookDrops checks that a plan dropping one topic counts the drop on
// the bus, and that a nil plan removes fault injection and restores delivery.
func TestFaultHookDrops(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	plan := NewFaultPlan(7)
	plan.SetTopic("t", FaultRates{Drop: 1})
	b.SetFaultPlan(plan)
	if err := a.Publish("t", nil); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Errorf("dropped message delivered")
	}
	if _, dropped := b.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	b.SetFaultPlan(nil)
	if err := a.Publish("t", nil); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(1)
	if msgs := bb.Receive(); len(msgs) != 1 {
		t.Errorf("delivered %d messages after the plan was removed, want 1", len(msgs))
	}
}

func TestFaultPlanDropAll(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	plan := NewFaultPlan(7)
	plan.SetDefault(FaultRates{Drop: 1})
	b.SetFaultPlan(plan)
	for i := 0; i < 5; i++ {
		if err := a.Publish("t", nil); err != nil {
			t.Fatal(err)
		}
		b.DeliverFrame(int64(i))
	}
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Errorf("dropped messages delivered: %d", len(msgs))
	}
	if st := plan.Stats(); st.Dropped != 5 {
		t.Errorf("plan dropped = %d, want 5", st.Dropped)
	}
	if _, dropped := b.Stats(); dropped != 5 {
		t.Errorf("bus dropped = %d, want 5", dropped)
	}
}

func TestFaultPlanDuplicateAll(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	plan := NewFaultPlan(7)
	plan.SetDefault(FaultRates{Duplicate: 1})
	b.SetFaultPlan(plan)
	if err := a.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	if msgs := bb.Receive(); len(msgs) != 2 {
		t.Fatalf("duplicated message delivered %d times, want 2", len(msgs))
	}
	if st := plan.Stats(); st.Duplicated != 1 {
		t.Errorf("plan duplicated = %d, want 1", st.Duplicated)
	}
}

func TestFaultPlanDelaySlipsOneFrame(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("t")
	plan := NewFaultPlan(7)
	plan.SetDefault(FaultRates{Delay: 1})
	b.SetFaultPlan(plan)
	if err := a.Publish("t", []byte("late")); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(3)
	if msgs := bb.Receive(); len(msgs) != 0 {
		t.Fatalf("delayed message delivered in its own frame")
	}
	// The delayed message goes out at the next boundary even with a
	// delay-everything plan: a message slips at most one frame.
	b.DeliverFrame(4)
	msgs := bb.Receive()
	if len(msgs) != 1 {
		t.Fatalf("delayed message delivered %d times at next frame, want 1", len(msgs))
	}
	if msgs[0].SentFrame != 4 {
		t.Errorf("delayed message SentFrame = %d, want restamped 4", msgs[0].SentFrame)
	}
	if st := plan.Stats(); st.Delayed != 1 {
		t.Errorf("plan delayed = %d, want 1", st.Delayed)
	}
}

func TestFaultPlanPerTopicOverride(t *testing.T) {
	b, a, bb := twoEndpointBus(t)
	bb.Subscribe("lossy")
	bb.Subscribe("clean")
	plan := NewFaultPlan(7)
	plan.SetDefault(FaultRates{Drop: 1})
	plan.SetTopic("clean", FaultRates{})
	b.SetFaultPlan(plan)
	if err := a.Publish("lossy", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish("clean", nil); err != nil {
		t.Fatal(err)
	}
	b.DeliverFrame(0)
	msgs := bb.Receive()
	if len(msgs) != 1 || msgs[0].Topic != "clean" {
		t.Fatalf("messages = %v, want only the clean topic", msgs)
	}
}

// TestFaultPlanDeterministic checks that equal seeds and equal traffic give
// equal fault decisions — the reproducibility contract campaigns rely on.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() FaultStats {
		b, a, bb := twoEndpointBus(t)
		bb.Subscribe("t")
		plan := NewFaultPlan(42)
		plan.SetDefault(FaultRates{Drop: 0.3, Duplicate: 0.2, Delay: 0.2})
		b.SetFaultPlan(plan)
		for i := 0; i < 50; i++ {
			if err := a.Publish("t", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			b.DeliverFrame(int64(i))
		}
		return plan.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Errorf("same seed diverged: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Errorf("expected all fault kinds at these rates, got %+v", s1)
	}
}

func TestSensorActuatorUnits(t *testing.T) {
	b := New(Schedule{{Owner: "alt-sensor", MaxMessages: 1}})
	var applied []string
	sensor, err := NewSensorUnit(b, "alt-sensor", "sensors/alt", func(frameNum int64) []byte {
		return []byte(strconv.FormatInt(1000+frameNum, 10))
	})
	if err != nil {
		t.Fatal(err)
	}
	actuator, err := NewActuatorUnit(b, "elevator", "sensors/alt", func(frameNum int64, p []byte) {
		applied = append(applied, fmt.Sprintf("f%d:%s", frameNum, p))
	})
	if err != nil {
		t.Fatal(err)
	}

	sched, err := frame.NewScheduler(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	if err := sched.AddTask(sensor); err != nil {
		t.Fatal(err)
	}
	if err := sched.AddTask(actuator); err != nil {
		t.Fatal(err)
	}
	sched.AddCommitHook(func(ctx frame.Context) error {
		b.DeliverFrame(ctx.Frame)
		return nil
	})
	if err := sched.Run(3); err != nil {
		t.Fatal(err)
	}
	// Frame 0's sample arrives in frame 1, etc.
	want := []string{"f1:1000", "f2:1001"}
	if len(applied) != len(want) {
		t.Fatalf("applied = %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Errorf("applied[%d] = %q, want %q", i, applied[i], want[i])
		}
	}
	if sensor.TaskID() != "sensor:alt-sensor" || actuator.TaskID() != "actuator:elevator" {
		t.Errorf("task IDs = %q, %q", sensor.TaskID(), actuator.TaskID())
	}
}

func TestSensorUnitSlotOverflowSurfaces(t *testing.T) {
	b := New(Schedule{}) // sensor owns no slot
	sensor, err := NewSensorUnit(b, "s", "t", func(int64) []byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := sensor.Tick(frame.Context{}); !errors.Is(err, ErrNoSlot) {
		t.Errorf("Tick = %v, want ErrNoSlot", err)
	}
}

func TestUnitAttachErrors(t *testing.T) {
	b := New(Schedule{})
	if _, err := b.Attach("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSensorUnit(b, "dup", "t", nil); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Errorf("NewSensorUnit dup = %v", err)
	}
	if _, err := NewActuatorUnit(b, "dup", "t", nil); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Errorf("NewActuatorUnit dup = %v", err)
	}
}
