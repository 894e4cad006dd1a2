// Package codec is the frame-path record codec: the fixed layout shared by
// every record a frame writes and reads back through stable storage (the
// SCRAM's commands and persisted state, the membership view, the flight
// recorder's ring chunks). A record is a tag byte naming its kind, its
// fields in a fixed order — zigzag varints for integers, one byte for a
// flag, a uvarint length before a string's bytes — and a CRC32C trailer over
// everything before it. Encoders append into a buffer their caller owns;
// RecordReader decodes in place, aliasing the input, so a decode allocates
// nothing.
//
// Decoding is strict: only the canonical encoding of a value is accepted
// (minimal varints, flag bytes 0 or 1, no trailing bytes), so a record that
// decodes re-encodes to exactly its input — nothing the checksum covers is
// silently dropped or normalized.
//
// The package imports nothing of the repository, so every layer that
// persists through stable storage — telemetry included, which package
// stable itself imports — shares the one codec.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt reports bytes that failed an integrity check: a medium or a
// snapshot returned them, but they are not a well-formed checksummed
// record. Package stable exports the same value as stable.ErrCorrupt.
var ErrCorrupt = errors.New("stable: corrupt record")

// The ways a frame-path record fails to decode. Each wraps ErrCorrupt, and
// each is a fixed value, so a failed decode costs no allocation.
var (
	errFieldsShort    = fmt.Errorf("%w: record fields truncated", ErrCorrupt)
	errFieldsChecksum = fmt.Errorf("%w: record checksum mismatch (torn or rotted write)", ErrCorrupt)
	errFieldsTag      = fmt.Errorf("%w: unexpected record tag", ErrCorrupt)
	errFieldsVarint   = fmt.Errorf("%w: malformed varint", ErrCorrupt)
	errFieldsFlag     = fmt.Errorf("%w: flag byte is neither 0 nor 1", ErrCorrupt)
	errFieldsTrailing = fmt.Errorf("%w: trailing bytes after the record's fields", ErrCorrupt)
)

// TrailerLen is the length of a record's CRC32C trailer. A writer that
// grows a sealed record cuts the trailer, appends fields and seals again.
const TrailerLen = 4

// crcTable is the Castagnoli polynomial, the usual choice for storage
// integrity checks.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendVarint appends an integer field.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendFlag appends a boolean field.
func AppendFlag(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a length-prefixed string field.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendCount appends the element count of a following sequence of fields.
func AppendCount(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// SealRecord closes the record that starts at dst[start] (its tag byte) by
// appending the CRC32C of its bytes.
func SealRecord(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// RecordReader decodes the fields of one sealed record, in the order they
// were appended. The first malformed field latches an error and every later
// read returns a zero value, so a decoder reads its fields unconditionally
// and checks Close once.
type RecordReader struct {
	b   []byte
	err error
}

// OpenRecord verifies raw's checksum trailer and tag byte and returns a
// reader positioned at the first field.
func OpenRecord(raw []byte, tag byte) RecordReader {
	if len(raw) < 1+TrailerLen {
		return RecordReader{err: errFieldsShort}
	}
	body := raw[:len(raw)-TrailerLen]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(raw[len(body):]) {
		return RecordReader{err: errFieldsChecksum}
	}
	if body[0] != tag {
		return RecordReader{err: errFieldsTag}
	}
	return RecordReader{b: body[1:]}
}

// uvarint reads one canonical (minimal-length) uvarint.
func (r *RecordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errFieldsShort
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.err = errFieldsVarint
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads an integer field.
func (r *RecordReader) Varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Flag reads a boolean field.
func (r *RecordReader) Flag() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 {
		r.err = errFieldsShort
		return false
	}
	v := r.b[0]
	if v > 1 {
		r.err = errFieldsFlag
		return false
	}
	r.b = r.b[1:]
	return v == 1
}

// Bytes reads a string field. The result aliases the record: callers intern
// it or copy it before the record's buffer is reused.
func (r *RecordReader) Bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errFieldsShort
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Count reads a length field announcing n following elements of at least
// minSize (≥ 1) bytes each. A count the remaining bytes cannot hold is
// reported as truncation, so a decoder may size its allocation by the
// result.
func (r *RecordReader) Count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minSize) {
		r.err = errFieldsShort
		return 0
	}
	return int(n)
}

// More reports whether fields remain to be read and no error has latched:
// a record whose trailing fields repeat to its end reads them while More.
func (r *RecordReader) More() bool { return r.err == nil && len(r.b) != 0 }

// Err returns the first decoding error so far.
func (r *RecordReader) Err() error { return r.err }

// Close ends the decode: the latched error, or an error if fields remain
// unread.
func (r *RecordReader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errFieldsTrailing
	}
	return r.err
}
