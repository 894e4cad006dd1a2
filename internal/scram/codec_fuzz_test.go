package scram

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/spectest"
	"repro/internal/stable"
)

// FuzzDecodeCommand feeds arbitrary bytes — torn, rotted or hostile
// configuration_status records — to the command decoder the frame path,
// ReadCommand and the takeover validation share. It must never panic; a
// record it accepts must re-encode to exactly the input bytes; anything else
// must be a stable.ErrCorrupt, which the application runtime and Restore
// already turn into a fail-stop halt or a refused takeover. The seed corpus
// in testdata/fuzz/FuzzDecodeCommand holds normal and protocol-phase
// commands and truncated, bad-tag and bad-CRC variants.
func FuzzDecodeCommand(f *testing.F) {
	rs := spectest.ThreeConfig()
	app := &rs.Apps[0]
	f.Add(appendCommand(nil, Command{Seq: 3, Phase: 2, Target: "ap-alt-hold", Config: "reduced", WinStart: 41, WinEnd: 42, Epoch: 5}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cmd, err := decodeCommand(raw, rs, app)
		if err != nil {
			if !errors.Is(err, stable.ErrCorrupt) {
				t.Fatalf("decode error %v is not stable.ErrCorrupt", err)
			}
			return
		}
		if again := appendCommand(nil, cmd); !bytes.Equal(again, raw) {
			t.Fatalf("accepted command re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}

// FuzzDecodeKernelState is FuzzDecodeCommand for the kernel's persisted
// state, the record a standby restores on takeover: never panic, accepted
// records re-encode byte-identically, everything else is stable.ErrCorrupt
// (which Restore reports as a refused takeover). The seed corpus in
// testdata/fuzz/FuzzDecodeKernelState holds an idle state, a mid-window
// state with an open phase span, and damaged variants.
func FuzzDecodeKernelState(f *testing.F) {
	rs := spectest.ThreeConfig()
	f.Add(appendState(nil, &kernelState{Current: "full", Env: "power-ok", LastEnd: -5}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var st kernelState
		err := decodeState(raw, rs, &st)
		if err != nil {
			if !errors.Is(err, stable.ErrCorrupt) {
				t.Fatalf("decode error %v is not stable.ErrCorrupt", err)
			}
			return
		}
		if again := appendState(nil, &st); !bytes.Equal(again, raw) {
			t.Fatalf("accepted state re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
