package telemetry

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/spec"
	"repro/internal/trace"
)

// FuzzDecodeRingChunk feeds arbitrary bytes — torn, rotted or hostile
// telemetry/ev records polled from a halted processor's stable storage — to
// the ring-chunk decoder RecoverRing uses. It must never panic; a chunk it
// accepts must re-encode to exactly the input bytes; anything else must be
// a codec.ErrCorrupt, which RecoverRing reports as a failed recovery. The
// seed corpus in testdata/fuzz/FuzzDecodeRingChunk holds a valid chunk and
// bad-CRC, truncated, bad-tag, unsorted-attribute, unsorted-application and
// trailing-byte variants.
func FuzzDecodeRingChunk(f *testing.F) {
	var enc eventEncoder
	f.Add(chunkOf(&enc, []Event{
		{Seq: 4, Frame: 2, Kind: KindTrigger, Config: "reduced", From: "full", Attrs: Attrs{{"seq", 1}}},
		{Seq: 5, Frame: 2, Kind: KindFrameState, Config: "reduced", State: &FrameState{
			Config: "reduced", Env: "alt1-failed",
			Apps: map[spec.AppID]AppSnap{"fcs": {Status: trace.StatusHalting, Spec: "fcs-full", PreOK: true}},
		}},
	}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := decodeChunk(raw, nil)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("decode error %v is not codec.ErrCorrupt", err)
			}
			return
		}
		if again := chunkOf(&enc, events); !bytes.Equal(again, raw) {
			t.Fatalf("accepted chunk re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
