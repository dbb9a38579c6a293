package cpg

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cpp"
)

func build(t *testing.T, sources ...Source) *Unit {
	t.Helper()
	b := &Builder{}
	u := b.Build(sources)
	for _, e := range u.Errors {
		t.Fatalf("build error: %v", e)
	}
	return u
}

func TestUnitBasics(t *testing.T) {
	u := build(t,
		Source{Path: "drivers/foo/a.c", Content: `
struct foo_dev { struct kref ref; int id; };
static void helper(struct foo_dev *d) { kref_get(&d->ref); }
int foo_probe(struct foo_dev *d)
{
	helper(d);
	return 0;
}
`})
	if len(u.Files) != 1 {
		t.Fatalf("files = %d", len(u.Files))
	}
	if u.Functions["foo_probe"] == nil || u.Functions["helper"] == nil {
		t.Fatalf("functions = %v", u.FunctionNames())
	}
	if u.Decls.Structs["foo_dev"] == nil {
		t.Error("struct table missing foo_dev")
	}
	if fe := u.Functions["foo_probe"].Extract(); fe == nil || fe.Graph == nil {
		t.Error("analysis artifacts missing")
	}
}

func TestDiscoveryRuns(t *testing.T) {
	u := build(t, Source{Path: "a.c", Content: `
struct foo_dev { struct kref ref; };
void foo_get(struct foo_dev *d) { kref_get(&d->ref); }
void foo_put(struct foo_dev *d) { kref_put(&d->ref); }
void user(struct foo_dev *d)
{
	foo_get(d);
	foo_put(d);
}
`})
	if len(u.DiscoveredStructs) != 1 || u.DiscoveredStructs[0] != "foo_dev" {
		t.Errorf("discovered structs = %v", u.DiscoveredStructs)
	}
	if len(u.DiscoveredAPIs) != 2 {
		t.Errorf("discovered APIs = %v", u.DiscoveredAPIs)
	}
	// Events in `user` must classify foo_get as Inc (DB extended before
	// extraction).
	found := false
	for _, evs := range u.Functions["user"].Extract().ByBlok {
		for _, ev := range evs {
			if ev.API == "foo_get" && ev.Op.String() == "G" {
				found = true
			}
		}
	}
	if !found {
		t.Error("discovered API not reflected in events")
	}
}

func TestHeadersResolved(t *testing.T) {
	headers := cpp.MapFiles{
		"include/linux/of.h": `
#define for_each_child_of_node(parent, child) \
	for (child = of_get_next_child(parent, 0); child; \
	     child = of_get_next_child(parent, child))
`,
	}
	b := &Builder{Headers: headers}
	srcs := []Source{{Path: "drivers/x.c", Content: `
#include <linux/of.h>
int walk(struct device_node *parent)
{
	struct device_node *child;
	for_each_child_of_node(parent, child) {
		use(child);
	}
	return 0;
}
`}}
	u := b.Build(srcs)
	for _, e := range u.Errors {
		t.Fatalf("err: %v", e)
	}
	// The header's macro table ends at the including file's observation: its
	// loop macro must reach it as a smartloop candidate.
	loop := false
	for _, m := range b.BuildArtifactContext(context.Background(), srcs, false).Files[0].Obs.Macros {
		if m.Name == "for_each_child_of_node" {
			loop = m.Loop
		}
	}
	if !loop {
		t.Error("loop macro from header missing from the file's observation")
	}
	if fe := u.Functions["walk"].Extract(); fe == nil || fe.Graph == nil {
		t.Error("walk not analyzed")
	}
}

func TestCallbackBindings(t *testing.T) {
	u := build(t, Source{Path: "drivers/d.c", Content: `
struct platform_driver { int (*probe)(void); int (*remove)(void); };
static int d_probe(void) { return 0; }
static int d_remove(void) { return 0; }
static struct platform_driver d_driver = {
	.probe = d_probe,
	.remove = d_remove,
};
`})
	cbs := u.Decls.CallbackBindings(u.DB)
	if len(cbs) != 1 {
		t.Fatalf("bindings = %+v", cbs)
	}
	cb := cbs[0]
	if cb.Acquire != "d_probe" {
		t.Errorf("acquire = %q", cb.Acquire)
	}
	if cb.Release != "d_remove" {
		t.Errorf("release = %q", cb.Release)
	}
	if cb.Pair.Struct != "platform_driver" {
		t.Errorf("pair = %+v", cb.Pair)
	}
}

func TestCallbackBindingMissingRelease(t *testing.T) {
	u := build(t, Source{Path: "drivers/d.c", Content: `
struct usb_driver { int (*probe)(void); int (*disconnect)(void); };
static int u_probe(void) { return 0; }
static struct usb_driver u_driver = {
	.probe = u_probe,
};
`})
	cbs := u.Decls.CallbackBindings(u.DB)
	if len(cbs) != 1 {
		t.Fatalf("bindings = %+v", cbs)
	}
	if cbs[0].Acquire != "u_probe" || cbs[0].Release != "" {
		t.Errorf("binding = %+v", cbs[0])
	}
}

func TestDeterministicOrder(t *testing.T) {
	srcs := []Source{
		{Path: "b.c", Content: "int fb(void) { return 2; }"},
		{Path: "a.c", Content: "int fa(void) { return 1; }"},
	}
	u1 := build(t, srcs...)
	u2 := build(t, srcs[1], srcs[0])
	if u1.Files[0].Name != "a.c" || u2.Files[0].Name != "a.c" {
		t.Error("files not sorted by path")
	}
	n1, n2 := u1.FunctionNames(), u2.FunctionNames()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("order differs: %v vs %v", n1, n2)
		}
	}
}

func TestParseErrorsSurfaced(t *testing.T) {
	b := &Builder{}
	u := b.Build([]Source{{Path: "bad.c", Content: "@@@;\nint ok(void) { return 0; }"}})
	if len(u.Errors) == 0 {
		t.Error("expected surfaced errors")
	}
	if u.Functions["ok"] == nil {
		t.Error("recovery failed")
	}
}

// TestParallelMatchesSequential builds the same sources with one worker and
// with many; every analysis artifact must agree.
func TestParallelMatchesSequential(t *testing.T) {
	srcs := []Source{
		{Path: "a.c", Content: `
struct a_dev { struct kref ref; };
void a_get(struct a_dev *d) { kref_get(&d->ref); }
void a_put(struct a_dev *d) { kref_put(&d->ref); }
int a_user(struct a_dev *d) { a_get(d); a_put(d); return 0; }
`},
		{Path: "b.c", Content: `
#define for_each_b(n) for (n = b_first(); n; n = b_next(n))
int b_probe(void)
{
	struct device_node *np = of_find_node_by_path("/b");
	if (!np)
		return -ENODEV;
	of_node_put(np);
	return 0;
}
`},
	}
	seq := (&Builder{Workers: 1}).Build(srcs)
	par := (&Builder{Workers: 8}).Build(srcs)
	if len(seq.Functions) != len(par.Functions) {
		t.Fatalf("function counts differ")
	}
	for name, sf := range seq.Functions {
		se, pe := sf.Extract(), par.Functions[name].Extract()
		if (se == nil) != (pe == nil) {
			t.Fatalf("%s: graph presence differs", name)
		}
		if se == nil {
			continue
		}
		if len(se.Graph.Blocks) != len(pe.Graph.Blocks) {
			t.Errorf("%s: block counts differ", name)
		}
		sevs, pevs := 0, 0
		for _, b := range se.Graph.Blocks {
			sevs += len(se.ByBlok[b])
		}
		for _, b := range pe.Graph.Blocks {
			pevs += len(pe.ByBlok[b])
		}
		if sevs != pevs {
			t.Errorf("%s: event counts differ (%d vs %d)", name, sevs, pevs)
		}
	}
	// Phase 1 is sharded too: merged declarations, per-file observations
	// and errors must agree between the sequential and parallel front ends.
	if len(seq.Files) != len(par.Files) {
		t.Errorf("file counts differ (%d vs %d)", len(seq.Files), len(par.Files))
	}
	for i := range seq.Files {
		if seq.Files[i].Name != par.Files[i].Name {
			t.Errorf("file %d: %s vs %s", i, seq.Files[i].Name, par.Files[i].Name)
		}
	}
	ctx := context.Background()
	seqObs := (&Builder{Workers: 1}).BuildArtifactContext(ctx, srcs, false).Observations()
	parObs := (&Builder{Workers: 8}).BuildArtifactContext(ctx, srcs, false).Observations()
	if len(seqObs) != 2 || len(seqObs[1].Macros) != 1 || !seqObs[1].Macros[0].Loop {
		t.Fatalf("fixture too weak: observations %+v", seqObs)
	}
	if !reflect.DeepEqual(seqObs, parObs) {
		t.Errorf("per-file observations differ:\nseq %+v\npar %+v", seqObs, parObs)
	}
	if !reflect.DeepEqual(seq.Decls, par.Decls) {
		t.Errorf("declaration tables differ")
	}
	if len(seq.Errors) != len(par.Errors) {
		t.Errorf("error counts differ (%d vs %d)", len(seq.Errors), len(par.Errors))
	}
	for i := range seq.Errors {
		if seq.Errors[i].Error() != par.Errors[i].Error() {
			t.Errorf("error %d differs: %v vs %v", i, seq.Errors[i], par.Errors[i])
		}
	}
}

// TestParallelErrorOrderDeterministic shards files with parse errors across
// many workers and checks the merged error list keeps sorted-path order.
func TestParallelErrorOrderDeterministic(t *testing.T) {
	srcs := []Source{
		{Path: "z.c", Content: "@@@;\nint fz(void) { return 0; }"},
		{Path: "a.c", Content: "###;\nint fa(void) { return 0; }"},
		{Path: "m.c", Content: "int fm(void) { return 0; }"},
	}
	want := (&Builder{Workers: 1}).Build(srcs)
	if len(want.Errors) == 0 {
		t.Fatal("expected parse errors")
	}
	for i := 0; i < 10; i++ {
		got := (&Builder{Workers: 8}).Build(srcs)
		if len(got.Errors) != len(want.Errors) {
			t.Fatalf("error counts differ (%d vs %d)", len(got.Errors), len(want.Errors))
		}
		for j := range want.Errors {
			if got.Errors[j].Error() != want.Errors[j].Error() {
				t.Fatalf("error %d differs: %v vs %v", j, got.Errors[j], want.Errors[j])
			}
		}
	}
}

// TestAnalyzeOnDemand: a function keeps no CFG. Every Extract call, from
// any goroutine, builds a fresh graph with its events over it — nothing is
// shared or retained between callers — and prototypes have none.
func TestAnalyzeOnDemand(t *testing.T) {
	u := build(t, Source{Path: "a.c", Content: `
int proto(int x);
int body(struct device_node *np)
{
	of_node_get(np);
	if (!np)
		return -1;
	of_node_put(np);
	return 0;
}
`})
	fn := u.Functions["body"]
	var wg sync.WaitGroup
	graphs := make([]*cfg.Graph, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if fe := fn.Extract(); fe != nil {
				graphs[i] = fe.Graph
			}
		}(i)
	}
	wg.Wait()
	for i, g := range graphs {
		if g == nil || len(g.Blocks) != len(graphs[0].Blocks) {
			t.Fatalf("caller %d saw graph %p, want a non-nil graph shaped like caller 0's", i, g)
		}
		if i > 0 && g == graphs[0] {
			t.Fatalf("caller %d shares caller 0's graph; each Extract must build afresh", i)
		}
	}
	if fe := u.Functions["proto"].Extract(); fe != nil {
		t.Fatal("a prototype was analyzed")
	}
	if got := len(u.Defined().Names); got != 1 {
		t.Fatalf("Defined indexes %d functions, want 1 (prototypes excluded)", got)
	}
}
