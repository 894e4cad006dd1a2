package telemetry

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// refRing is the plain-slice reference model of Recorder: the live events in
// a slice, oldest first, and each persisted chunk re-encoded from scratch by
// a fresh encoder, then checked to decode back to its events. It shares no
// code with the ring beyond eventKey, the event encoder and the
// chunk-sealing constants, so the model test pins the ring's logical
// behaviour — and its grow-and-reseal of the open chunk — independently of
// how its buffer is laid out.
type refRing struct {
	capacity int
	retain   int64
	live     []Event

	seq, frame, dropped, trimmed, trimNoted int64

	persistLo, persistHi int64
	chunks               []chunkRef
	openKey              string
	openStart            int64
	open                 []Event // the open chunk's events
	openBytes            []byte  // and their last persisted encoding
}

func (m *refRing) record(e Event) {
	e.Seq = m.seq
	m.seq++
	if e.Frame == 0 {
		e.Frame = m.frame
	}
	m.live = append(m.live, e)
	if len(m.live) > m.capacity {
		m.live = m.live[1:]
		m.dropped++
	}
}

func (m *refRing) setFrame(f int64) {
	m.frame = f
	if m.retain <= 0 || f <= m.retain {
		return
	}
	horizon := f - m.retain
	for len(m.live) > 0 && m.live[0].Frame < horizon &&
		(m.persistHi == 0 || m.live[0].Seq < m.persistHi) {
		m.live = m.live[1:]
		m.trimmed++
	}
	if m.trimmed > m.trimNoted && f%trimNoteEvery == 0 {
		m.record(Event{Frame: f, Kind: KindTrim, Attrs: attrsOf(map[string]int64{
			"trimmed": m.trimmed,
			"horizon": horizon,
		})})
		m.trimNoted = m.trimmed
	}
}

func (m *refRing) persist(t *testing.T, kv KV) {
	lo := m.seq - int64(len(m.live))
	if lo == m.persistLo && m.seq == m.persistHi && m.persistHi > 0 {
		return
	}
	for len(m.chunks) > 1 && m.chunks[1].start <= lo {
		kv.Delete(m.chunks[0].key)
		m.chunks = m.chunks[1:]
	}
	start := max(m.persistHi, lo)
	if start < m.seq {
		if m.openKey == "" || len(m.openBytes) >= openChunkSealBytes || m.openStart < lo {
			m.openKey = eventKey(start)
			m.openStart = start
			m.chunks = append(m.chunks, chunkRef{start: start, key: m.openKey})
			m.open = nil
		}
		m.open = append(m.open, m.live[start-lo:]...)
		m.openBytes = mustChunk(t, m.open)
		kv.Put(m.openKey, m.openBytes)
	}
	m.persistLo, m.persistHi = lo, m.seq
}

func (m *refRing) resetPersistence() {
	m.persistLo, m.persistHi = 0, 0
	m.chunks = nil
	m.openKey, m.openStart, m.open, m.openBytes = "", 0, nil, nil
}

func mustChunk(t *testing.T, evs []Event) []byte {
	t.Helper()
	b := chunkOf(&eventEncoder{}, evs)
	back, err := decodeChunk(b, nil)
	if err != nil || !reflect.DeepEqual(back, evs) {
		t.Fatalf("model chunk decodes to %v, %v; want %v", back, err, evs)
	}
	return b
}

// randomEvent draws an event with a mix of the fields that pin memory: an
// attribute map, a frame-state sample, a detail string.
func randomEvent(rng *rand.Rand) Event {
	kinds := []Kind{KindSignal, KindTrigger, KindFrameState, KindBudget, KindSpanStart}
	e := Event{Kind: kinds[rng.Intn(len(kinds))]}
	if rng.Intn(3) == 0 {
		e.Detail = "alt1 reports failed"
	}
	if rng.Intn(3) == 0 {
		e.Attrs = attrsOf(map[string]int64{"seq": rng.Int63n(100), "window": rng.Int63n(10)})
	}
	if e.Kind == KindFrameState {
		e.State = &FrameState{Config: "full", Env: "nominal", Apps: map[spec.AppID]AppSnap{"a": {Status: trace.StatusNormal}}}
	}
	return e
}

// TestRingMatchesSliceModel applies seeded random sequences of Record,
// SetFrame, Persist and ResetPersistence to the ring and to refRing, with
// and without a retention horizon and with capacities small enough that
// capacity eviction and buffer wrap both happen, and requires the two to
// agree on every observable: Events, Len, Dropped, Trimmed and every
// persisted chunk's bytes. It also pins the memory contract the buffer
// layout exists for: once retention trims, the backing array holds at most
// max(minRingSlots, 4×live) slots, and every slot outside the live window
// is the zero Event, so nothing trimmed stays reachable.
func TestRingMatchesSliceModel(t *testing.T) {
	cases := []struct {
		capacity int
		retain   int64
	}{
		{5, 0}, {16, 0}, {37, 0}, {100, 0},
		{5, 3}, {16, 8}, {37, 20}, {100, 40}, {4096, 30},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(tc.capacity) + tc.retain))
			rec := NewRecorder(tc.capacity)
			rec.SetRetention(tc.retain)
			ref := &refRing{capacity: tc.capacity, retain: tc.retain}
			kvRec, kvRef := memKV{}, memKV{}
			frame := int64(0)
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(20); {
				case r < 9:
					// Bursts: churn frames record several events, quiet
					// ones none, so the live window swells and drains.
					burst := 1 + rng.Intn(4)
					if rng.Intn(8) == 0 {
						burst = 20 + rng.Intn(40)
					}
					for i := 0; i < burst; i++ {
						e := randomEvent(rng)
						if rng.Intn(10) == 0 {
							e.Frame = frame + 1 // an explicit frame is kept
						}
						rec.Record(e)
						ref.record(e)
					}
				case r < 16:
					frame += int64(rng.Intn(4))
					if rng.Intn(50) == 0 {
						frame += 200 // a long quiet stretch
					}
					rec.SetFrame(frame)
					ref.setFrame(frame)
					if tc.retain > 0 && frame > tc.retain {
						if n, live := len(rec.buf), rec.Len(); n > max(minRingSlots, 4*live) {
							t.Fatalf("cap %d retain %d seed %d op %d: backing array %d slots for %d live events",
								tc.capacity, tc.retain, seed, op, n, live)
						}
					}
				case r < 19:
					if err := rec.Persist(kvRec); err != nil {
						t.Fatal(err)
					}
					ref.persist(t, kvRef)
					compareKV(t, kvRec, kvRef)
				default:
					rec.ResetPersistence()
					ref.resetPersistence()
					if rng.Intn(2) == 0 {
						// A takeover onto a fresh store.
						kvRec, kvRef = memKV{}, memKV{}
					}
				}
				compareRing(t, rec, ref, op%32 == 0)
			}
			compareRing(t, rec, ref, true)
			// Every arm must have exercised the path it exists for.
			if tc.retain == 0 && rec.Dropped() == 0 {
				t.Errorf("cap %d seed %d: no capacity eviction happened", tc.capacity, seed)
			}
			if tc.retain > 0 && rec.Trimmed() == 0 {
				t.Errorf("cap %d retain %d seed %d: no retention trim happened", tc.capacity, tc.retain, seed)
			}
		}
	}
}

// compareRing checks the ring against the model. Every call compares the
// events' sequence numbers, which are unique, so any misplaced slot shows;
// deep compares every field as well.
func compareRing(t *testing.T, rec *Recorder, ref *refRing, deep bool) {
	t.Helper()
	got := rec.Events()
	same := len(got) == len(ref.live)
	for i := 0; same && i < len(got); i++ {
		same = got[i].Seq == ref.live[i].Seq
	}
	if same && deep {
		same = reflect.DeepEqual(got, append([]Event{}, ref.live...))
	}
	if !same {
		t.Fatalf("Events diverge:\n ring  %v\n model %v", got, ref.live)
	}
	if rec.Len() != len(ref.live) || rec.Dropped() != ref.dropped || rec.Trimmed() != ref.trimmed {
		t.Fatalf("Len/Dropped/Trimmed = %d/%d/%d, model %d/%d/%d",
			rec.Len(), rec.Dropped(), rec.Trimmed(), len(ref.live), ref.dropped, ref.trimmed)
	}
	for i := rec.count; i < len(rec.buf); i++ {
		slot := rec.buf[(rec.head+i)%len(rec.buf)]
		if !reflect.ValueOf(slot).IsZero() {
			t.Fatalf("slot outside the live window holds %v; trimmed slots must be zeroed", slot)
		}
	}
}

func compareKV(t *testing.T, got, want memKV) {
	t.Helper()
	keys := func(m memKV) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("persisted keys diverge:\n ring  %v\n model %v", keys(got), keys(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("chunk %s diverges:\n ring  %x\n model %x", k, got[k], v)
		}
	}
}
