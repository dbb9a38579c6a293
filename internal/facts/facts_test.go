package facts_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bincodec"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
)

// fixture has a hidden-get leak, a paired-error-path function, and a
// refcount-free function, so traces exercise conditions, error blocks, and
// the empty case.
const fixtureSrc = `
static int f_leak(void)
{
	struct device_node *np = of_find_node_by_path("/soc");
	if (!np)
		return -ENODEV;
	use_node(np);
	return 0;
}

static int f_err(struct device_node *np)
{
	int err;
	of_node_get(np);
	err = register_thing(np);
	if (err)
		goto fail;
	of_node_put(np);
	return 0;
fail:
	return err;
}

static void f_plain(int x)
{
	use(x);
}
`

func buildFixture(t testing.TB) *cpg.Unit {
	t.Helper()
	b := &cpg.Builder{}
	return b.Build([]cpg.Source{{Path: "drivers/x/fixture.c", Content: fixtureSrc}})
}

// TestMemoizedExactlyOnce hammers every function slot from many goroutines
// and asserts each function's facts were computed exactly once and every
// caller saw the same value. Run with -race this is the engine's
// exactly-once guarantee at any worker count.
func TestMemoizedExactlyOnce(t *testing.T) {
	uf := facts.NewUnit(buildFixture(t))
	names := uf.FunctionNames()
	if len(names) != 3 {
		t.Fatalf("FunctionNames = %v, want 3 defined functions", names)
	}
	first := make([]*facts.FunctionFacts, len(names))
	for i, n := range names {
		first[i] = uf.Function(n)
		if first[i] == nil {
			t.Fatalf("Function(%q) = nil", n)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range names {
				ff := uf.Function(n)
				if ff != first[i] {
					t.Errorf("Function(%q) returned a different value concurrently", n)
				}
				// The lazily walked declared types are shared the same way.
				if ff.VarTypes() == nil {
					t.Errorf("Function(%q).VarTypes() = nil", n)
				}
			}
		}()
	}
	wg.Wait()
	if got := computed(uf); got != int64(len(names)) {
		t.Fatalf("computed = %d, want exactly %d (one per defined function)", got, len(names))
	}
	if uf.Function("no_such_function") != nil {
		t.Fatal("unknown function should yield nil facts")
	}
}

// TestTraceSchema checks the structural invariants every checker relies on:
// parallel slices, stripped CFG blocks, monotone block positions, and the
// ErrFrom suffix property.
func TestTraceSchema(t *testing.T) {
	uf := facts.NewUnit(buildFixture(t))
	sawError := false
	for _, name := range uf.FunctionNames() {
		ff := uf.Function(name)
		for ti, tr := range ff.Traces() {
			if tr.Len() != len(tr.BlockAt) || tr.Len() != len(tr.Branch) {
				t.Fatalf("%s trace %d: slice lengths diverge (%d events, %d blockAt, %d branch)",
					name, ti, tr.Len(), len(tr.BlockAt), len(tr.Branch))
			}
			for i, ev := range tr.Events() {
				if !reflect.DeepEqual(ev, *tr.At(i)) {
					t.Fatalf("%s trace %d event %d: Events and At disagree", name, ti, i)
				}
				if ev.Block != nil {
					t.Fatalf("%s trace %d event %d: CFG block not stripped", name, ti, i)
				}
				if i > 0 && tr.BlockAt[i] < tr.BlockAt[i-1] {
					t.Fatalf("%s trace %d: BlockAt not monotone at %d", name, ti, i)
				}
				// ErrorAtOrAfter true whenever ErrorAfter is: the inclusive
				// query can only add the event's own block.
				if tr.ErrorAfter(i) && !tr.ErrorAtOrAfter(i) {
					t.Fatalf("%s trace %d event %d: ErrorAfter without ErrorAtOrAfter", name, ti, i)
				}
			}
			if n := len(tr.ErrFrom); n > 0 && tr.ErrFrom[n-1] {
				t.Fatalf("%s trace %d: ErrFrom sentinel must be false", name, ti)
			}
			for k := 0; k+1 < len(tr.ErrFrom); k++ {
				if tr.ErrFrom[k+1] && !tr.ErrFrom[k] {
					t.Fatalf("%s trace %d: ErrFrom not a suffix-or at %d", name, ti, k)
				}
				sawError = sawError || tr.ErrFrom[k]
			}
		}
		for _, ev := range ff.All() {
			if ev.Block != nil {
				t.Fatalf("%s: All() event carries a CFG block", name)
			}
		}
	}
	if !sawError {
		t.Fatal("fixture should produce at least one path through an error block")
	}
}

// TestSnapshotCodecRoundTrip proves the facts cache entry is faithful: a
// Snapshot survives the production binary codec (what each per-file facts
// cache entry actually stores) and a fresh unit preloaded from it serves
// identical Data without computing anything.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	u := buildFixture(t)
	uf := facts.NewUnit(u)
	snap := uf.Snapshot()

	decoded, err := facts.DecodeSnapshot(facts.EncodeSnapshot(snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for name, d := range snap {
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(decoded[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: decoded facts differ from computed:\nwant %s\ngot  %s", name, want, got)
		}
	}

	uf2 := facts.NewUnit(u)
	if !uf2.Preload(uf2.FunctionNames(), decoded) {
		t.Fatal("Preload of a complete snapshot should report true")
	}
	for _, name := range uf2.FunctionNames() {
		if uf2.Function(name).Data != decoded[name] {
			t.Fatalf("%s: preloaded slot did not adopt the snapshot Data", name)
		}
	}
	if got := computed(uf2); got != 0 {
		t.Fatalf("computed after full preload = %d, want 0", got)
	}
}

// TestPreloadIncomplete: a snapshot missing any requested function must not
// count as a facts hit and seeds nothing — the file's entry is re-derived
// and re-stored whole, so the cache stats never lie about what computed.
func TestPreloadIncomplete(t *testing.T) {
	u := buildFixture(t)
	snap := facts.NewUnit(u).Snapshot()
	delete(snap, "f_plain")

	uf := facts.NewUnit(u)
	if uf.Preload(uf.FunctionNames(), snap) {
		t.Fatal("Preload of an incomplete snapshot should report false")
	}
	for _, name := range uf.FunctionNames() {
		if uf.Function(name) == nil {
			t.Fatalf("%s must still compute on demand", name)
		}
	}
	if got := computed(uf); got != 3 {
		t.Fatalf("computed = %d, want 3 (an incomplete snapshot seeds nothing)", got)
	}

	// A subset the snapshot does cover preloads on its own.
	uf2 := facts.NewUnit(u)
	if !uf2.Preload([]string{"f_err", "f_leak"}, snap) {
		t.Fatal("Preload of a covered subset should report true")
	}
	uf2.Snapshot()
	if got := computed(uf2); got != 1 {
		t.Fatalf("computed = %d, want 1 (only the function outside the preloaded subset)", got)
	}
	if uf3 := facts.NewUnit(u); uf3.Preload(uf3.FunctionNames(), nil) || uf3.Preload(nil, snap) {
		t.Fatal("Preload with no snapshot or no names should report false")
	}
}

// TestFilesGroupsByDefiningFile: the per-file grouping behind the facts cache
// entries follows the definition the unit kept, so a name defined in two
// files belongs only to the file whose body won (the later path).
func TestFilesGroupsByDefiningFile(t *testing.T) {
	u := (&cpg.Builder{}).Build([]cpg.Source{
		{Path: "a.c", Content: "void dup(void) { use(1); }\nvoid only_a(void) { use(2); }\n"},
		{Path: "b.c", Content: "void dup(void) { use(3); }\nvoid only_b(void) { use(4); }\nint proto(void);\n"},
		{Path: "c.h.c", Content: "int decl_only(void);\n"},
	})
	got := facts.NewUnit(u).Files()
	want := []facts.FileFuncs{
		{Path: "a.c", Names: []string{"only_a"}},
		{Path: "b.c", Names: []string{"dup", "only_b"}},
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("Files() = %s, want %s", gj, wj)
	}
}

// FuzzSnapshotCodec holds the facts codec to the cache's robustness
// contract: arbitrary bytes either decode or fail with ErrCorrupt, a
// decoded snapshot answers every trace query a checker makes without
// panicking (its indices were range-checked), and it re-encodes to a fixed
// point.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(facts.EncodeSnapshot(facts.NewUnit(buildFixture(f)).Snapshot()))
	f.Add(facts.EncodeSnapshot(map[string]*facts.Data{}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := facts.DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		for _, d := range snap {
			for ti := range d.Traces {
				tr := &d.Traces[ti]
				for i := 0; i < tr.Len(); i++ {
					_ = tr.At(i).Op
					_ = tr.ErrorAfter(i) || tr.ErrorAtOrAfter(i)
					_ = tr.BranchNull(i)
				}
			}
			for _, x := range append(append([]int32(nil), d.DecIdx...), d.EscapeIdx...) {
				_ = d.All[x]
			}
		}
		enc := facts.EncodeSnapshot(snap)
		again, err := facts.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if !bytes.Equal(enc, facts.EncodeSnapshot(again)) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}

// computed is the number of functions whose facts uf derived rather than
// took from a preloaded snapshot.
func computed(uf *facts.UnitFacts) int64 {
	reg := obs.NewRegistry()
	uf.Observe(reg)
	return reg.Counter("facts.computed")
}
