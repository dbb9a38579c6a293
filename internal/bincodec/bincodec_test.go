package bincodec

import (
	"bytes"
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.Uvarint(300)
	w.String("hello")
	w.String("")
	w.Strings([]string{"a", "bb", ""})
	w.Strings(nil)

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 7 {
		t.Errorf("U8=%d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32=%x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64=%x", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint=%d", v)
	}
	if v := r.String(); v != "hello" {
		t.Errorf("String=%q", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("empty String=%q", v)
	}
	ss := r.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "bb" || ss[2] != "" {
		t.Errorf("Strings=%v", ss)
	}
	if r.Strings() != nil {
		t.Error("empty Strings must decode to nil")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done=%v", err)
	}
}

func TestTruncationIsCorrupt(t *testing.T) {
	w := NewWriter(0)
	w.String("payload")
	w.U64(99)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		_ = r.U64()
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err=%v, want ErrCorrupt", cut, err)
		}
	}
}

func TestTrailingBytesAreCorrupt(t *testing.T) {
	w := NewWriter(0)
	w.U8(1)
	r := NewReader(append(bytes.Clone(w.Bytes()), 0xFF))
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err=%v, want ErrCorrupt", err)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err must stay nil when only Done's exact-consumption check fails, got %v", err)
	}
}

// TestHugeCountDoesNotAllocate flips a length prefix to a huge value: the
// reader must report corruption without attempting the allocation.
func TestHugeCountDoesNotAllocate(t *testing.T) {
	w := NewWriter(0)
	w.U32(0xFFFFFFF0) // absurd count with no payload behind it
	r := NewReader(w.Bytes())
	if n := r.Count(); n != 0 {
		t.Errorf("Count=%d, want 0 on corrupt input", n)
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err=%v, want ErrCorrupt", err)
	}
}

func TestBadBoolIsCorrupt(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err=%v, want ErrCorrupt", err)
	}
}

// TestStickyError: after one failure every later read is inert and Err
// still reports the first failure.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.U64() // fails
	if v := r.U8(); v != 0 {
		t.Errorf("read after failure returned %d", v)
	}
	if r.String() != "" || r.Strings() != nil {
		t.Error("reads after failure must return zero values")
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Err=%v, want ErrCorrupt", err)
	}
}

// TestTabledRoundTrip: a tabled payload stores each distinct string once,
// resolves every id back to its string, joins its body sections in order,
// and fails on a wrong format byte or an id past the table.
func TestTabledRoundTrip(t *testing.T) {
	var tab Table
	body := NewWriter(0)
	words := []string{"of_node_put", "np", "of_node_put", "", "np", "of_node_put"}
	for _, s := range words {
		body.Ref(&tab, s)
	}
	// A second body section follows the first.
	tail := NewWriter(0)
	tail.Uvarint(uint64(len(tab.strs)))
	data := Tabled(7, &tab, body, tail)
	if got := bytes.Count(data, []byte("of_node_put")); got != 1 {
		t.Errorf("payload holds %d copies of a repeated string, want 1", got)
	}
	r := OpenTabled(data, 7)
	for i, want := range words {
		if got := r.Ref(); got != want {
			t.Errorf("ref %d = %q, want %q", i, got, want)
		}
	}
	if n := r.Uvarint(); n != 3 {
		t.Errorf("table size = %d, want 3", n)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done=%v", err)
	}
	if err := OpenTabled(data, 8).Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong format byte: err=%v, want ErrCorrupt", err)
	}
	bad := NewWriter(0)
	bad.Uvarint(3) // one past the three-string table
	r = OpenTabled(Tabled(7, &tab, bad), 7)
	if r.Ref() != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("out-of-table id: err=%v, want ErrCorrupt", r.Err())
	}
}
