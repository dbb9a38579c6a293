package cpg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apidb"
	"repro/internal/bincodec"
)

// artifactSources is a small corpus exercising everything a shard artifact
// carries: macros (including a loop macro), structs, wrapper functions,
// cross-file calls, and a preprocessor error.
func artifactSources() []Source {
	return []Source{
		{Path: "drv/core.c", Content: `
#define for_each_node(n) \
	for (n = node_next(0); n; n = node_next(n))
struct node { refcount_t refcount; struct node *next; };
struct node *node_next(struct node *n)
{
	if (!n)
		return 0;
	n->refcount++;
	return n;
}
void node_put(struct node *n) { n->refcount--; }
`},
		{Path: "drv/user.c", Content: `
void use_all(struct node *head)
{
	struct node *n;
	for_each_node(n) {
		consume(n);
		node_put(n);
	}
}
int grab_err(struct node *n) { node_next(n); return -EBUSY; }
`},
		{Path: "drv/broken.c", Content: `
#if 1
int unbalanced_if(void) { return 0; }
`},
	}
}

func buildSampleArtifact(t *testing.T) *ShardArtifact {
	t.Helper()
	b := &Builder{Workers: 1}
	art := b.BuildArtifactContext(context.Background(), artifactSources(), true)
	if len(art.Files) != 3 {
		t.Fatalf("artifact files = %d, want 3", len(art.Files))
	}
	return art
}

func TestShardArtifactRoundTrip(t *testing.T) {
	art := buildSampleArtifact(t)
	enc := EncodeShardArtifact(art)
	dec, err := DecodeShardArtifact(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Files) != len(art.Files) {
		t.Fatalf("decoded files = %d, want %d", len(dec.Files), len(art.Files))
	}
	for i, af := range dec.Files {
		want := art.Files[i]
		if af.Path != want.Path {
			t.Errorf("file %d path %q != %q", i, af.Path, want.Path)
		}
		if !reflect.DeepEqual(af.Tokens, want.Tokens) {
			t.Errorf("%s: tokens differ after round trip", af.Path)
		}
		if !reflect.DeepEqual(af.Obs, want.Obs) {
			t.Errorf("%s: observations differ:\nwant %+v\ngot  %+v", af.Path, want.Obs, af.Obs)
		}
		if af.cppN != want.cppN {
			t.Errorf("%s: cppN %d != %d", af.Path, af.cppN, want.cppN)
		}
		if af.file != nil {
			t.Errorf("%s: decoded file must carry no AST", af.Path)
		}
	}
	// Re-encoding the decoded artifact must reproduce identical bytes.
	if enc2 := EncodeShardArtifact(dec); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode of decoded artifact is not byte-identical")
	}
	// The broken TU's preprocessor error must have traveled.
	var sawCppErr bool
	for _, af := range dec.Files {
		if af.Path == "drv/broken.c" && af.cppN > 0 {
			sawCppErr = true
		}
	}
	if !sawCppErr {
		t.Error("expected drv/broken.c to carry a preprocessor error")
	}
}

func TestShardArtifactCorruptInputs(t *testing.T) {
	enc := EncodeShardArtifact(buildSampleArtifact(t))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeShardArtifact(enc[:cut]); !errors.Is(err, bincodec.ErrCorrupt) {
			t.Fatalf("cut=%d: err=%v, want ErrCorrupt", cut, err)
		}
	}
	// A payload of another format byte is corrupt, not misread.
	stale := bytes.Clone(enc)
	stale[0]--
	if _, err := DecodeShardArtifact(stale); !errors.Is(err, bincodec.ErrCorrupt) {
		t.Fatalf("stale version: err=%v, want ErrCorrupt", err)
	}
	long := append(bytes.Clone(enc), 0)
	if _, err := DecodeShardArtifact(long); !errors.Is(err, bincodec.ErrCorrupt) {
		t.Fatalf("trailing byte: err=%v, want ErrCorrupt", err)
	}
}

func TestEncodeWithoutRetentionPanics(t *testing.T) {
	b := &Builder{Workers: 1}
	art := b.BuildArtifactContext(context.Background(), artifactSources(), false)
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a non-retained artifact should panic")
		}
	}()
	EncodeShardArtifact(art)
}

// unitFingerprint summarizes every unit property downstream consumers read,
// canonically, so two build routes can be compared for equivalence.
func unitFingerprint(u *Unit) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "files=%d\n", len(u.Files))
	for _, e := range u.Errors {
		fmt.Fprintf(&b, "err %s\n", e.Error())
	}
	for _, name := range u.FunctionNames() {
		fn := u.Functions[name]
		fe := fn.Extract()
		fmt.Fprintf(&b, "fn %s file=%s defined=%v events=%v\n",
			name, fn.File, fe != nil && fe.Graph != nil, fe != nil)
	}
	fmt.Fprintf(&b, "structs=%d globals=%d\n", len(u.Decls.Structs), len(u.Decls.Globals))
	fmt.Fprintf(&b, "disc=%v/%v/%v/%v\n", u.DiscoveredStructs,
		u.DiscoveredAPIs, u.DiscoveredLoops, u.DiscoveredDeviations)
	for _, cb := range u.Decls.CallbackBindings(u.DB) {
		fmt.Fprintf(&b, "cb %s %q %q\n", cb.Pair.Struct, cb.Acquire, cb.Release)
	}
	return b.String()
}

// TestShardedAssembleMatchesBuild is the cpg-layer determinism pin: sources
// partitioned across N shard-local passes, serialized over the wire, merged
// and assembled must reproduce the single-process Build unit — same
// functions, errors in the same order, same discovery, same DB behavior.
func TestShardedAssembleMatchesBuild(t *testing.T) {
	ctx := context.Background()
	srcs := artifactSources()
	whole := (&Builder{Workers: 1}).Build(srcs)
	want := unitFingerprint(whole)

	for shards := 1; shards <= 3; shards++ {
		parts := make([][]Source, shards)
		for i, s := range srcs {
			parts[i%shards] = append(parts[i%shards], s)
		}
		var arts []*ShardArtifact
		for _, part := range parts {
			wb := &Builder{Workers: 1}
			art := wb.BuildArtifactContext(ctx, part, true)
			dec, err := DecodeShardArtifact(EncodeShardArtifact(art))
			if err != nil {
				t.Fatalf("shards=%d: wire round trip: %v", shards, err)
			}
			arts = append(arts, dec)
		}
		merged := MergeShardArtifacts(arts...)
		db := apidb.New()
		disc := db.Apply(merged.Observations())
		u := (&Builder{DB: db, Workers: 1}).AssembleContext(ctx, merged, &disc)
		if got := unitFingerprint(u); got != want {
			t.Errorf("shards=%d: unit differs from single-process build:\n--- want ---\n%s--- got ---\n%s",
				shards, want, got)
		}
	}
}

// FuzzShardArtifactCodec pins the artifact codec's two contracts, mirroring
// FuzzCacheCodec: arbitrary input either decodes cleanly or fails with
// bincodec.ErrCorrupt (never a panic), and anything that decodes re-encodes
// to a canonical form that is a fixed point — enc(dec(enc(dec(x)))) ==
// enc(dec(x)).
func FuzzShardArtifactCodec(f *testing.F) {
	b := &Builder{Workers: 1}
	f.Add(EncodeShardArtifact(b.BuildArtifactContext(context.Background(), artifactSources(), true)))
	f.Add(EncodeShardArtifact(&ShardArtifact{}))
	f.Add([]byte{})
	f.Add([]byte{artifactFormat})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeShardArtifact(data)
		if err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := EncodeShardArtifact(a)
		a2, err := DecodeShardArtifact(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if enc2 := EncodeShardArtifact(a2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}
