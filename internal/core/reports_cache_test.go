package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/bincodec"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// reportsEdit is one soundness scenario for the per-file report entries: a
// cache warmed by (v1, opt1), then (v2, opt2) analyzed on it, the report
// entry split that must produce, and whether the reports change at all.
type reportsEdit struct {
	name             string
	v1, v2           []cpg.Source
	opt1, opt2       Options
	hits, misses     int64
	wantReportChange bool
}

func analyzeEntries(t *testing.T, srcs []cpg.Source, opt Options, cache *analysiscache.Cache) *Run {
	t.Helper()
	opt.Workers, opt.Cache = 1, cache
	run, err := Analyze(context.Background(), Request{
		Sources: srcs, Options: opt, Trace: obs.New("reports-cache-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestReportEntriesFollowTheirInputs pins what a per-file report entry is
// keyed on: one scenario per input in the function-scoped checkers' read
// set (DESIGN.md tabulates it). Each scenario warms a cache, changes one
// input — by editing a file other than the one whose reports change, or by
// changing the run's configuration — and requires reports byte-identical
// to an uncached run plus the exact report entry hit/miss split. A key that
// left the input out would serve drivers/b/user.c's cells stale, or hit
// where it must miss.
func TestReportEntriesFollowTheirInputs(t *testing.T) {
	const api = `
struct my_pm_dev { atomic_t usage; };
static int __my_pm_suspend(struct my_pm_dev *dev)
{
	int retval;
	atomic_inc(&dev->usage);
	retval = rpm_resume(dev);
	return retval;
}
int my_pm_get_sync(struct my_pm_dev *dev)
{
	return __my_pm_suspend(dev);
}
void my_pm_put(struct my_pm_dev *dev)
{
	atomic_dec(&dev->usage);
}
`
	const global = "struct sock *monitor_sk;\n"
	// user.c holds one function per read-set input: a P1 through a
	// discovered API, a store into a global, a smartloop whose macro
	// another file may shadow, and direct frees of structs declared in
	// another file.
	user := cpg.Source{Path: "drivers/b/user.c", Content: `
#define for_each_gizmo_node(dn, m) \
	for (dn = of_find_matching_node(0, m); dn; \
	     dn = of_find_matching_node(dn, m))
static int driver_start(struct my_pm_dev *dev)
{
	int ret = my_pm_get_sync(dev);
	if (ret < 0)
		return ret;
	start_hw(dev);
	my_pm_put(dev);
	return 0;
}
static void attach(struct sock *sk)
{
	monitor_sk = sk;
}
static int scan(void)
{
	struct device_node *dn;
	for_each_gizmo_node(dn, matches) {
		if (broken(dn))
			return -EIO;
	}
	return 0;
}
static void drop_widget(struct widget *w)
{
	kfree(w);
}
static void drop_gadget(struct gadget *g)
{
	kfree(g);
}`}
	// defs.c sorts after user.c, so its struct declarations and its
	// redefinition of the loop macro win the unit-wide merges. It defines
	// no function, so it owns no entry of its own.
	const shadow = "#define for_each_gizmo_node(dn, m) if (0)\n"
	const widget = "struct widget { struct kref ref; };\n"
	const gadget = "struct gadget { int count; };\n"
	defs := func(s string) cpg.Source { return cpg.Source{Path: "drivers/z/defs.c", Content: s} }
	other := cpg.Source{Path: "drivers/c/other.c", Content: "int other(int x)\n{\n\treturn x + 1;\n}\n"}

	v1 := []cpg.Source{{Path: "drivers/a/api.c", Content: api + global}, user, other, defs(shadow + widget + gadget)}
	with := func(i int, content string) []cpg.Source {
		out := append([]cpg.Source(nil), v1...)
		out[i].Content = content
		return out
	}
	// The deviated API stops incrementing: discovery no longer registers
	// my_pm_get_sync, so user.c's P1 report goes away.
	apiEdited := strings.Replace(api, "atomic_inc(&dev->usage);", "touch(dev);", 1)
	p7, p3 := Options{Checkers: []Pattern{P7}}, Options{Checkers: []Pattern{P3}}
	cases := []reportsEdit{
		{name: "comment in one file", v1: v1, v2: with(1, user.Content+"\n/* edit */\n"),
			hits: 2, misses: 1},
		{name: "API table", v1: v1, v2: with(0, apiEdited+global),
			misses: 3, wantReportChange: true},
		{name: "smartloop macro", v1: v1, v2: with(3, widget+gadget),
			misses: 3, wantReportChange: true},
		{name: "ref-struct set", v1: v1, v2: with(3, shadow+widget+strings.Replace(gadget, "int", "atomic_t", 1)),
			misses: 3, wantReportChange: true},
		{name: "struct kref field", v1: v1, v2: with(3, shadow+strings.Replace(widget, "ref;", "kref;", 1)+gadget),
			misses: 3, wantReportChange: true},
		{name: "global names", v1: v1, v2: with(0, api),
			misses: 3, wantReportChange: true},
		{name: "checker subset", v1: v1, v2: v1, opt1: p7, opt2: p3,
			misses: 3, wantReportChange: true},
		{name: "ConfigFP", v1: v1, v2: v1, opt1: Options{ConfigFP: "a"}, opt2: Options{ConfigFP: "b"},
			misses: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := analysiscache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer cache.Close()
			before := analyzeEntries(t, tc.v1, tc.opt1, cache)
			if hit, miss := before.Metric("cache.reports.hit"), before.Metric("cache.reports.miss"); hit != 0 || miss != 3 {
				t.Fatalf("cold run: %d report hits, %d misses, want 0, 3 (one per file defining functions)", hit, miss)
			}
			after := analyzeEntries(t, tc.v2, tc.opt2, cache)
			fresh := analyzeEntries(t, tc.v2, tc.opt2, nil)
			if !bytes.Equal(reportBytes(after.Reports), reportBytes(fresh.Reports)) {
				t.Fatalf("cached run differs from uncached run:\ncached: %+v\nfresh:  %+v", after.Reports, fresh.Reports)
			}
			if changed := !bytes.Equal(reportBytes(before.Reports), reportBytes(fresh.Reports)); changed != tc.wantReportChange {
				t.Fatalf("fixture: the change altered the reports = %v, want %v", changed, tc.wantReportChange)
			}
			if hit, miss := after.Metric("cache.reports.hit"), after.Metric("cache.reports.miss"); hit != tc.hits || miss != tc.misses {
				t.Fatalf("report entries: %d hits, %d misses, want %d, %d", hit, miss, tc.hits, tc.misses)
			}
		})
	}
}

// FuzzReportsCodec holds the report entry codec to the cache's robustness
// contract: arbitrary bytes either decode or fail with ErrCorrupt (a
// counted miss), and anything that decodes re-encodes to a fixed point.
func FuzzReportsCodec(f *testing.F) {
	sample := map[string][][]Report{
		"probe": {nil, {{Pattern: P4, Impact: Leak, Function: "probe", File: "a.c", Object: "np", API: "of_find_node_by_path",
			Deferred: DeferSmartLoop, Witness: []semantics.Event{{Op: semantics.OpInc, Obj: "np"}}}}},
		"remove": {nil, nil},
	}
	f.Add(encodeReportsEntry(sample))
	f.Add(encodeReportsEntry(map[string][][]Report{}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeReportsValue(data)
		if err != nil {
			if !errors.Is(err, bincodec.ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := encodeReportsEntry(v.(map[string][][]Report))
		v2, err := decodeReportsValue(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if enc2 := encodeReportsEntry(v2.(map[string][][]Report)); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical form is not a re-encode fixed point")
		}
	})
}

// TestStaleEntriesAreMisses: a cache written before the table-deduplicated
// payloads holds reports-v1 and facts-v4 entries. Those keys are never read
// again, and even a stale payload under a current key — the layout the
// format byte guards — must decode as a miss and be recomputed, never serve
// different bytes. Each file's stale entries here name its functions (empty
// facts, full sets of empty cells), so a decoder that accepted them would
// drop every report.
func TestStaleEntriesAreMisses(t *testing.T) {
	srcs, _ := demoSet()
	cold, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	u := analyzeEntries(t, srcs, Options{}, cold).Unit
	cold.Close()
	engine, err := NewEngineFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	env, checkEnv, checkersFP := u.ExtractEnvFP(), checkEnvFP(u), engine.patternsFP()

	stale, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := int64(0)
	for _, f := range facts.NewUnit(u).Files() {
		src := u.SourceFP[f.Path]
		if src == "" {
			continue
		}
		files++
		// reports-v1: format 1, then per function its name and its cells,
		// each a count-prefixed report list.
		rep := bincodec.NewWriter(64)
		rep.U8(1)
		rep.U32(uint32(len(f.Names)))
		// facts-v4 (facts format 2): per function its name and a Data of
		// four zero totals, two empty index lists and two empty sets.
		fct := bincodec.NewWriter(64)
		fct.U8(2)
		fct.U32(uint32(len(f.Names)))
		for _, name := range f.Names {
			rep.String(name)
			rep.U32(uint32(len(engine.Checkers)))
			for range engine.Checkers {
				rep.U32(0)
			}
			fct.String(name)
			for i := 0; i < 8; i++ {
				fct.U32(0)
			}
		}
		for _, key := range []string{
			analysiscache.KeyOf("reports-v1", "", env, src, checkEnv, checkersFP),
			reportsCacheKey("", env, src, checkEnv, checkersFP),
		} {
			if err := stale.Put(key, rep.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		for _, key := range []string{
			analysiscache.KeyOf("facts-v4", "", env, src),
			factsCacheKey("", env, src),
		} {
			if err := stale.Put(key, fct.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if files == 0 {
		t.Fatal("no file defines a function")
	}
	want := reportBytes(analyzeEntries(t, srcs, Options{}, nil).Reports)
	run := analyzeEntries(t, srcs, Options{}, stale)
	if !bytes.Equal(reportBytes(run.Reports), want) {
		t.Fatal("a run over stale entries differs from an uncached run")
	}
	for _, kind := range []string{"facts", "reports"} {
		if hit, miss := run.Metric("cache."+kind+".hit"), run.Metric("cache."+kind+".miss"); hit != 0 || miss != files {
			t.Errorf("%s entries: %d hits, %d misses, want 0, %d (every stale entry a miss)", kind, hit, miss, files)
		}
	}
	stale.Close()
}
