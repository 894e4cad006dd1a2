package stable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
)

// The hardened storage layer derives dependable stable storage from
// unreliable media, following the construction Schlichting and Schneider
// describe for stable storage and the paper's section 3 assumption that the
// platform provides it: every committed value is encoded as a self-checking
// record (magic, commit version, CRC32C) so that corruption is *detected*
// rather than returned, and a per-medium commit record pins the version a
// medium has fully absorbed so torn (partially applied) commits are
// detectable after the fact.

// ErrCorrupt reports a record that failed its integrity check: the medium
// returned bytes, but they are not a well-formed checksummed record. It is
// codec.ErrCorrupt, so a frame-path record that fails to decode and a
// storage record that fails its check report one error.
var ErrCorrupt = codec.ErrCorrupt

// ErrUnrecoverable reports corruption that defeated every replica. The owner
// of the store must treat this as a fail-stop failure: halting is the only
// response that preserves the fail-stop abstraction, because returning a
// value would risk silent wrong data.
var ErrUnrecoverable = errors.New("stable: unrecoverable storage fault")

// The ways a record fails its integrity check. Each wraps ErrCorrupt. They
// are fixed values so that detecting a damaged replica — a stuck read, a
// rotted bit — costs no allocation on the read and scrub path.
var (
	errShortRecord   = fmt.Errorf("%w: record shorter than its header", ErrCorrupt)
	errBadMagic      = fmt.Errorf("%w: bad magic", ErrCorrupt)
	errBadFlags      = fmt.Errorf("%w: unknown flag bits", ErrCorrupt)
	errBadLength     = fmt.Errorf("%w: payload length does not match the record", ErrCorrupt)
	errBadChecksum   = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	errBadCommitSize = fmt.Errorf("%w: commit record payload is not 8 bytes", ErrCorrupt)
)

// recordMagic marks the start of an encoded record.
const recordMagic uint32 = 0x57AB1E01

// record flag bits.
const flagTombstone byte = 1 << 0

// recordHeaderLen is magic(4) + flags(1) + version(8) + len(4) + crc(4).
const recordHeaderLen = 4 + 1 + 8 + 4 + 4

// crcTable is the Castagnoli polynomial, the usual choice for storage
// integrity checks.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded stable-storage record: a committed value (or a
// deletion tombstone) stamped with the commit version that wrote it.
type record struct {
	version   uint64
	tombstone bool
	payload   []byte
}

// appendRecord appends the record, serialized with its integrity header, to
// dst and returns the extended slice. Callers that write the bytes to a
// Medium encode into a reused scratch buffer: Write never retains its
// argument, so the buffer is free again once the write returns.
func appendRecord(dst []byte, r record) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], recordMagic)
	if r.tombstone {
		hdr[4] = flagTombstone
	}
	binary.BigEndian.PutUint64(hdr[5:13], r.version)
	binary.BigEndian.PutUint32(hdr[13:17], uint32(len(r.payload)))
	crc := crc32.Checksum(hdr[4:17], crcTable)
	crc = crc32.Update(crc, crcTable, r.payload)
	binary.BigEndian.PutUint32(hdr[17:21], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, r.payload...)
}

// decodeRecord parses and verifies an encoded record. Any mismatch — bad
// magic, unknown flag bits, short buffer, wrong length, checksum failure —
// returns ErrCorrupt: the detection half of the fail-stop storage
// construction. The payload aliases raw (capacity clipped, so an append to
// it cannot scribble past the record): it is valid exactly as long as raw
// is, and a caller that hands the value out must copy it.
func decodeRecord(raw []byte) (record, error) {
	if len(raw) < recordHeaderLen {
		return record{}, errShortRecord
	}
	if binary.BigEndian.Uint32(raw[0:4]) != recordMagic {
		return record{}, errBadMagic
	}
	if raw[4]&^flagTombstone != 0 {
		return record{}, errBadFlags
	}
	plen := binary.BigEndian.Uint32(raw[13:17])
	if uint64(len(raw)) != uint64(recordHeaderLen)+uint64(plen) {
		return record{}, errBadLength
	}
	crc := crc32.Checksum(raw[4:17], crcTable)
	crc = crc32.Update(crc, crcTable, raw[recordHeaderLen:])
	if crc != binary.BigEndian.Uint32(raw[17:21]) {
		return record{}, errBadChecksum
	}
	r := record{
		version:   binary.BigEndian.Uint64(raw[5:13]),
		tombstone: raw[4]&flagTombstone != 0,
	}
	if plen > 0 {
		r.payload = raw[recordHeaderLen:len(raw):len(raw)]
	}
	return r, nil
}

// commitRecordKey is the reserved medium key of the commit record. Store
// keys are application strings and never begin with NUL, so the namespace
// cannot collide.
const commitRecordKey = "\x00commit"

// appendCommitRecord appends the commit record for a version to dst: a
// record whose payload is the version, written last in every commit batch.
// A medium whose commit record is behind the store's version did not absorb
// the latest commit completely (a torn write).
func appendCommitRecord(dst []byte, version uint64) []byte {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], version)
	return appendRecord(dst, record{version: version, payload: payload[:]})
}

// decodeCommitRecord returns the version a commit record pins.
func decodeCommitRecord(raw []byte) (uint64, error) {
	rec, err := decodeRecord(raw)
	if err != nil {
		return 0, err
	}
	if len(rec.payload) != 8 {
		return 0, errBadCommitSize
	}
	return binary.BigEndian.Uint64(rec.payload), nil
}
