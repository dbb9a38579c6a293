package cpg

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// sampleEntry exercises every field of the encoding: multi-token origin
// chains, include closure entries with and without hashes, preprocessor
// errors, and an observation with every list populated (a loop and a
// non-loop macro among them).
func sampleEntry() *frontEntry {
	pos := func(l, c int) clex.Pos { return clex.Pos{File: "drv/a.c", Line: l, Col: c} }
	return &frontEntry{
		Closure: []cpp.IncludeDep{
			{Path: "linux/kref.h", Hash: "abc123"},
			{Path: "missing.h", Hash: ""},
		},
		Tokens: []clex.Token{
			{Kind: clex.Ident, Text: "kref_get", Pos: pos(3, 1)},
			{Kind: clex.LParen, Text: "(", Pos: pos(3, 9)},
			{Kind: clex.Ident, Text: "obj", Pos: pos(3, 10), LeadingSpace: true,
				Origin: []string{"GET_OBJ", "WRAP"}},
			{Kind: clex.RParen, Text: ")", Pos: pos(3, 13), Origin: []string{"GET_OBJ", "WRAP"}},
			{Kind: clex.Semi, Text: ";", Pos: pos(3, 14)},
		},
		CppErrors: []string{"a.c:9: unterminated #if"},
		Obs: apidb.FileObs{
			Path: "drv/a.c",
			Structs: []apidb.StructObs{
				{Name: "obj", Fields: []apidb.FieldObs{{Base: "struct", Struct: "kref"}, {Base: "int"}}},
				{Name: "empty"},
			},
			Funcs: []apidb.FuncObs{{
				Name: "obj_get", Params: []string{"o"}, RetPointer: true, ReturnsNull: true,
				Calls:       []apidb.CallObs{{Callee: "kref_get", ArgBases: []string{"o", ""}}, {Callee: "f"}},
				CounterOps:  []apidb.CounterOpObs{{Base: "o", Inc: true}, {Inc: false}},
				TailCallees: []string{"obj_find"},
			}, {Name: "obj_err", ErrorCode: true}},
			Macros: []apidb.MacroObs{
				{Name: "OBJLIKE"},
				{Name: "for_each_obj", Loop: true, Params: []string{"o"},
					Idents: []apidb.LoopIdentObs{{Name: "o", NextAssign: true}, {Name: "obj_next"}}},
			},
		},
	}
}

// decodeEntry decodes a front-end entry through decodeFrontValue, with the
// never-encoded parse memo cleared so the entry compares with its source.
func decodeEntry(data []byte) (*frontEntry, error) {
	v, err := decodeFrontValue(data)
	if err != nil {
		return nil, err
	}
	ent := v.(*frontEntry)
	ent.memo = nil
	return ent, nil
}

func TestFrontEntryRoundTrip(t *testing.T) {
	want := sampleEntry()
	enc := encodeFrontEntry(want)
	got, err := decodeEntry(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", *want, *got)
	}
	// Re-encoding the decoded entry must reproduce identical bytes — the
	// table construction is a deterministic function of the entry.
	if enc2 := encodeFrontEntry(got); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode of decoded entry is not byte-identical")
	}
}

func TestFrontEntryCorruptInputs(t *testing.T) {
	enc := encodeFrontEntry(sampleEntry())
	// Every truncation must fail cleanly.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeFrontValue(enc[:cut]); !errors.Is(err, bincodec.ErrCorrupt) {
			t.Fatalf("cut=%d: err=%v, want ErrCorrupt", cut, err)
		}
	}
	// A payload of another format byte is corrupt, not misread.
	stale := bytes.Clone(enc)
	stale[0]--
	if _, err := decodeFrontValue(stale); !errors.Is(err, bincodec.ErrCorrupt) {
		t.Fatalf("stale version: err=%v, want ErrCorrupt", err)
	}
	// Trailing garbage is corrupt: a valid entry consumes its input exactly.
	long := append(bytes.Clone(enc), 0)
	if _, err := decodeFrontValue(long); !errors.Is(err, bincodec.ErrCorrupt) {
		t.Fatalf("trailing byte: err=%v, want ErrCorrupt", err)
	}
}

// FuzzCacheCodec pins the codec's two contracts: arbitrary input either
// decodes cleanly or fails with bincodec.ErrCorrupt (never a panic), and
// anything that decodes re-encodes to a canonical form that is a fixed point
// — enc(dec(enc(dec(x)))) == enc(dec(x)).
func FuzzCacheCodec(f *testing.F) {
	f.Add(encodeFrontEntry(sampleEntry()))
	f.Add(encodeFrontEntry(&frontEntry{}))
	f.Add([]byte{})
	f.Add([]byte{frontFormat})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := decodeEntry(data)
		if err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := encodeFrontEntry(ent)
		ent2, err := decodeEntry(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if enc2 := encodeFrontEntry(ent2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}
