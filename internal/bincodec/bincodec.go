// Package bincodec provides the hand-rolled binary encoding primitives the
// analysis cache entries are built from: little-endian fixed-width fields
// with length-prefixed variable data, written by an append-only Writer and
// read by a sticky-error Reader.
//
// The codec replaces encoding/gob on the cache hot path. gob decodes
// through reflection and re-transmits type descriptors per stream; a warm
// run spends most of its time there. The fixed-offset encoding here decodes
// with straight-line field reads and no reflection, and the Reader's
// sticky-error design keeps per-field code branch-free: decode functions
// read every field unconditionally and check Err once at the end.
//
// Payloads whose strings repeat heavily (report cells, facts snapshots,
// token streams, file records) are written table-deduplicated: a format
// byte, a string table (Table) of every distinct string in first-use order,
// then a body that names each string by its uvarint id (Writer.Ref,
// Reader.Ref). Tabled assembles such a payload and OpenTabled reads its
// head.
//
// Robustness contract (enforced by the FuzzCacheCodec target): any
// truncated, bit-flipped, or otherwise malformed input must surface as
// ErrCorrupt from Err/Done — never a panic, never a huge allocation. Count
// reads are bounded by the remaining input length before any allocation
// happens, so a flipped length byte cannot demand gigabytes.
package bincodec

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt is returned by Reader.Err/Done for any malformed input. The
// analysis cache maps it to a counted miss.
var ErrCorrupt = errors.New("bincodec: corrupt data")

// Writer accumulates an encoded entry. The zero value is ready to use.
type Writer struct {
	b []byte
}

// NewWriter returns a writer with capHint bytes of initial capacity.
func NewWriter(capHint int) *Writer {
	return &Writer{b: make([]byte, 0, capHint)}
}

// Bytes returns the encoded form (aliases the writer's buffer).
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Raw appends pre-encoded bytes verbatim (no length prefix) — used to join
// independently built sections (e.g. a body encoded before its string table).
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// Uvarint writes v as an unsigned LEB128 varint (one byte below 128).
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Ref writes s as its uvarint id in t, adding s to t on first use. With a
// nil t it writes s inline, uvarint-length-prefixed: the untabled form a
// fingerprint hashes, which no Reader decodes.
func (w *Writer) Ref(t *Table, s string) {
	if t == nil {
		w.Uvarint(uint64(len(s)))
		w.b = append(w.b, s...)
		return
	}
	w.Uvarint(uint64(t.ID(s)))
}

// Table assigns dense ids to strings in first-use order: the string table
// of a deduplicated payload. The zero value is ready to use.
type Table struct {
	idx  map[string]uint32
	strs []string
}

// ID returns s's id, adding s on first use.
func (t *Table) ID(s string) uint32 {
	if id, ok := t.idx[s]; ok {
		return id
	}
	if t.idx == nil {
		t.idx = make(map[string]uint32, 64)
	}
	id := uint32(len(t.strs))
	t.idx[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Tabled assembles a table-deduplicated payload: the format byte, t's
// strings (a uvarint count, then each string uvarint-length-prefixed), then
// the body — its sections in order — whose Ref ids resolve against t.
func Tabled(format uint8, t *Table, body ...*Writer) []byte {
	n := 1 + binary.MaxVarintLen32
	for _, sec := range body {
		n += sec.Len()
	}
	for _, s := range t.strs {
		n += binary.MaxVarintLen32 + len(s)
	}
	w := NewWriter(n)
	w.U8(format)
	w.Uvarint(uint64(len(t.strs)))
	for _, s := range t.strs {
		w.Uvarint(uint64(len(s)))
		w.b = append(w.b, s...)
	}
	for _, sec := range body {
		w.Raw(sec.Bytes())
	}
	return w.Bytes()
}

// Strings writes a count-prefixed string slice.
func (w *Writer) Strings(ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes an entry produced by Writer. Any out-of-bounds read flips
// the sticky error; subsequent reads return zero values, so decoders can
// read every field linearly and check Err once.
type Reader struct {
	b   []byte
	off int
	bad bool

	// table is a tabled payload's string table (OpenTabled); Ref resolves
	// ids against it, so every decoded use of a string shares one copy.
	table []string
}

// NewReader returns a reader over b (which is aliased, not copied; decoded
// strings are copied out so they never alias b).
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail() {
	r.bad = true
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Fail marks the input corrupt. Decoders call it when a structurally valid
// field carries a semantically impossible value (an enum out of range, a
// version tag from the future), folding domain validation into the same
// sticky-error path as framing errors.
func (r *Reader) Fail() { r.fail() }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.bad || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a bool; any byte other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Count reads an element count and validates it against the remaining
// input: every encoded element occupies at least one byte, so a count
// exceeding Remaining is corrupt. This bounds slice preallocation on
// malformed input.
func (r *Reader) Count() int {
	n := int(r.U32())
	if n < 0 || n > r.Remaining() {
		r.fail()
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if r.bad || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Uvarint reads an unsigned varint written by Writer.Uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// UCount reads a uvarint element count, bounded by the remaining input
// exactly like Count.
func (r *Reader) UCount() int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.fail()
		return 0
	}
	return int(n)
}

// OpenTabled opens a payload written by Tabled: it checks the format byte
// and reads the string table, leaving the reader at the body. On a wrong
// format or a malformed table the reader is failed.
func OpenTabled(data []byte, format uint8) *Reader {
	r := NewReader(data)
	if r.U8() != format {
		r.fail()
		return r
	}
	n := r.UCount()
	if r.bad {
		return r
	}
	r.table = make([]string, n)
	for i := range r.table {
		m := r.UCount()
		if r.bad {
			r.table = nil
			return r
		}
		r.table[i] = string(r.b[r.off : r.off+m])
		r.off += m
	}
	return r
}

// Ref reads a string id written by Writer.Ref and resolves it against the
// payload's table; an id outside the table is corrupt.
func (r *Reader) Ref() string {
	id := r.Uvarint()
	if id >= uint64(len(r.table)) {
		r.fail()
		return ""
	}
	return r.table[id]
}

// Strings reads a count-prefixed string slice, returning nil for an empty
// one (matching the "empty and absent are indistinguishable" convention of
// the cached structures).
func (r *Reader) Strings() []string {
	n := r.Count()
	if r.bad || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.bad {
		return nil
	}
	return out
}

// Err returns ErrCorrupt if any read failed.
func (r *Reader) Err() error {
	if r.bad {
		return ErrCorrupt
	}
	return nil
}

// Done returns ErrCorrupt if any read failed or input remains — a valid
// entry is consumed exactly.
func (r *Reader) Done() error {
	if r.bad || r.off != len(r.b) {
		return ErrCorrupt
	}
	return nil
}
