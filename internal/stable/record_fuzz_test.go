package stable

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes — torn, rotted or hostile medium
// contents — to the record decoder. It must never panic; a record it
// accepts must re-encode to exactly the input bytes (so nothing the checksum
// covers is silently dropped or normalized); anything else must be reported
// as ErrCorrupt, which the replicated store turns into a repair or a
// fail-stop halt. The seed corpus in testdata/fuzz/FuzzDecodeRecord holds a
// valid record, a tombstone, and truncated, bad-magic and bad-CRC variants.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendRecord(nil, record{version: 7, payload: []byte("value")}))
	f.Add(appendCommitRecord(nil, 42))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeRecord(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		if again := appendRecord(nil, rec); !bytes.Equal(again, raw) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
