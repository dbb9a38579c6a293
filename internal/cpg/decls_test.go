package cpg

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/bincodec"
)

// TestDeclTableRule pins the exchange's resolution rule, which every
// process must apply alike: a function goes to the last declaration with a
// body (else the first prototype), a struct or global to its last
// declaration — a bare extern included.
func TestDeclTableRule(t *testing.T) {
	u := (&Builder{Workers: 1}).Build([]Source{
		{Path: "a.c", Content: "int f(void);\nint g(void);\nstruct s { int x; struct kref ref; };\nint v;\n"},
		{Path: "b.c", Content: "int f(void) { return 1; }\nint g(void);\nstruct s { int y; };\nextern struct s v;\n"},
		{Path: "c.c", Content: "int f(void) { return 2; }\nint f(void);\n"},
	})
	d := u.Decls
	if got, want := d.Funcs["f"], (FuncEntry{File: "c.c", Body: true}); got != want {
		t.Errorf("f = %+v, want %+v (last definition with a body)", got, want)
	}
	if got, want := d.Funcs["g"], (FuncEntry{File: "a.c"}); got != want {
		t.Errorf("g = %+v, want %+v (first prototype)", got, want)
	}
	if s := d.Structs["s"]; s == nil || !reflect.DeepEqual(s.Fields, []FieldInfo{{Name: "y"}}) {
		t.Errorf("s = %+v, want b.c's declaration", s)
	}
	if g := d.Globals["v"]; g == nil || g.Struct != "s" {
		t.Errorf("v = %+v, want the extern's struct type", g)
	}
	if fn := u.Functions["f"]; fn == nil || fn.File != "c.c" || fn.Def.Body == nil {
		t.Errorf("unit keeps %+v for f, want c.c's definition", fn)
	}

	// A shard holding only some files assembles exactly the functions the
	// table assigns to them.
	art := (&Builder{Workers: 1}).BuildArtifactContext(context.Background(), []Source{
		{Path: "a.c", Content: "int f(void);\nint g(void);\n"},
	}, false)
	x := &Exchange{Files: 3, Decls: d}
	part := (&Builder{DB: apidb.New()}).AssembleShard(art, x)
	if len(part.Functions) != 1 || part.Functions["g"] == nil {
		t.Errorf("a.c's shard holds %v, want only g", part.FunctionNames())
	}
}

// TestDefinedIndex pins the defined-function index: names sorted, grouped
// by the file whose definition won, each file's positions pointing back
// into the name order. A unit holding every defining file shares its
// exchange's index; a shard holding only some indexes its own.
func TestDefinedIndex(t *testing.T) {
	srcs := []Source{
		{Path: "a.c", Content: "int f(void) { return 0; }\nint z(void) { return 0; }\nint p(void);\n"},
		{Path: "b.c", Content: "int f(void) { return 1; }\nint m(void) { return 1; }\n"},
	}
	u := (&Builder{Workers: 1}).Build(srcs)
	ix := u.Defined()
	if ix != u.Decls.Defined() {
		t.Error("a unit holding every file does not share the exchange's index")
	}
	if want := []string{"f", "m", "z"}; !reflect.DeepEqual(ix.Names, want) {
		t.Errorf("Names = %v, want %v", ix.Names, want)
	}
	if want := []FileFuncs{{Path: "a.c", Names: []string{"z"}}, {Path: "b.c", Names: []string{"f", "m"}}}; !reflect.DeepEqual(ix.Files, want) {
		t.Errorf("Files = %+v, want %+v", ix.Files, want)
	}
	for i, f := range ix.Files {
		for k, name := range f.Names {
			if at, ok := ix.Lookup(name); !ok || ix.Positions(i)[k] != at || ix.Names[at] != name {
				t.Errorf("%s: position %d, lookup %d (%v)", name, ix.Positions(i)[k], at, ok)
			}
		}
	}
	if _, ok := ix.Lookup("p"); ok {
		t.Error("a prototype is indexed")
	}

	art := (&Builder{Workers: 1}).BuildArtifactContext(context.Background(), srcs[:1], false)
	part := (&Builder{DB: apidb.New()}).AssembleShard(art, &Exchange{Files: 2, Decls: u.Decls})
	if want := []FileFuncs{{Path: "a.c", Names: []string{"z"}}}; !reflect.DeepEqual(part.Defined().Files, want) {
		t.Errorf("a.c's shard indexes %+v, want %+v", part.Defined().Files, want)
	}
	if got := part.Defined().Positions(0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("a.c's shard positions = %v, want [0]", got)
	}
}

// TestRecordsRoundTrip pins the record codec: a real shard's records
// survive encoding exactly, every truncation fails with
// bincodec.ErrCorrupt, and no cpg payload kind decodes another's bytes.
func TestRecordsRoundTrip(t *testing.T) {
	recs := sampleRecords(t)
	enc := EncodeRecords(recs)
	got, err := DecodeRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("records changed in a round trip:\n%+v\n%+v", recs, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRecords(enc[:cut]); !errors.Is(err, bincodec.ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	// Each payload kind rejects the other two kinds' bytes: its format byte
	// differs, so none is misread as another.
	kinds := []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"front-end entry", encodeFrontEntry(sampleEntry()), func(b []byte) error { _, err := decodeFrontValue(b); return err }},
		{"shard artifact", EncodeShardArtifact(buildSampleArtifact(t)), func(b []byte) error { _, err := DecodeShardArtifact(b); return err }},
		{"file records", enc, func(b []byte) error { _, err := DecodeRecords(b); return err }},
	}
	for _, dec := range kinds {
		for _, k := range kinds {
			err := dec.decode(k.enc)
			if k.name == dec.name {
				if err != nil {
					t.Errorf("%s: own bytes rejected: %v", k.name, err)
				}
			} else if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Errorf("%s bytes decoded as %s: err = %v, want ErrCorrupt", k.name, dec.name, err)
			}
		}
	}
}

// sampleRecords is a real shard's file records.
func sampleRecords(t testing.TB) []FileRecord {
	art := (&Builder{Workers: 1}).BuildArtifactContext(context.Background(), artifactSources(), false)
	recs := art.Records()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	return recs
}

// FuzzRecordsCodec pins the record codec's two contracts, mirroring
// FuzzCacheCodec: arbitrary input (DecodeRecords parses what worker
// processes write) either decodes cleanly or fails with bincodec.ErrCorrupt,
// never a panic, and anything that decodes re-encodes to a canonical form
// that is a fixed point — enc(dec(enc(dec(x)))) == enc(dec(x)).
func FuzzRecordsCodec(f *testing.F) {
	f.Add(EncodeRecords(sampleRecords(f)))
	f.Add(EncodeRecords(nil))
	f.Add([]byte{})
	f.Add([]byte{recordsFormat})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := EncodeRecords(recs)
		recs2, err := DecodeRecords(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if enc2 := EncodeRecords(recs2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}

// TestRecordsFPFollowsRecords pins the record fingerprints behind the
// exchange memo: a build without a cache computes none, the fingerprint a
// hit computes from a disk entry equals the one its miss computed, a
// comment leaves it alone, and a change to an observation, a declaration
// (a global, which no observation records) or a path changes it.
func TestRecordsFPFollowsRecords(t *testing.T) {
	base := []Source{
		{Path: "a.c", Content: "struct box { int n; };\nint get_box(struct box *b) { return b->n; }\n"},
		{Path: "b.c", Content: "void use(struct box *b) { get_box(b); }\n"},
	}
	dir := t.TempDir()
	build := func(srcs []Source, memory int64) string {
		t.Helper()
		cache, err := analysiscache.Open(dir, analysiscache.WithMemory(memory))
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		return (&Builder{Cache: cache}).BuildArtifactContext(context.Background(), srcs, false).RecordsFP()
	}
	if fp := (&Builder{}).BuildArtifactContext(context.Background(), base, false).RecordsFP(); fp != "" {
		t.Errorf("a build without a cache fingerprinted its records: %q", fp)
	}
	want := build(base, analysiscache.DefaultMemory)
	if want == "" {
		t.Fatal("a build with a cache left its records unfingerprinted")
	}
	if got := build(base, analysiscache.DefaultMemory); got != want {
		t.Error("the fingerprint computed on a hit differs from the miss's")
	}
	edit := func(i int, content string) []Source {
		out := append([]Source(nil), base...)
		out[i].Content = content
		return out
	}
	if got := build(edit(1, base[1].Content+"/* comment */\n"), 0); got != want {
		t.Error("a comment changed the records' fingerprint")
	}
	for name, srcs := range map[string][]Source{
		"observation": edit(1, "void use(struct box *b) { get_box(b); get_box(b); }\n"),
		"declaration": edit(0, base[0].Content+"int box_count;\n"),
		"path":        {base[0], {Path: "c.c", Content: base[1].Content}},
	} {
		if got := build(srcs, 0); got == want {
			t.Errorf("a changed %s left the records' fingerprint alone", name)
		}
	}
}
