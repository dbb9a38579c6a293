package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
)

// factsEdit is one soundness scenario for the per-file facts entries: a
// two-version corpus (sources and headers) where v2 makes one edit, the
// files whose entries that edit must re-derive on a cache warmed by v1 (nil
// for every file), and whether the edit changes the reports at all.
type factsEdit struct {
	name             string
	v1, v2           []cpg.Source
	h1, h2           map[string]string
	stale            []string
	wantReportChange bool
}

// unitInputFiles returns the files that define an input of the unit-scoped
// checkers (P6): the files whose facts a run reads even when their report
// entries hit.
func unitInputFiles(t *testing.T, u *cpg.Unit) map[string]bool {
	t.Helper()
	engine, err := NewEngineFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, name := range engine.unitInputs(u.DB, u.Decls) {
		if f := u.Decls.Funcs[name]; f.Body {
			files[f.File] = true
		}
	}
	return files
}

// reportBytes is a full-fidelity encoding of a report list (witnesses
// included), so equal bytes mean equal reports.
func reportBytes(rs []Report) []byte {
	return encodeSegment(stripBlocks(append([]Report(nil), rs...)))
}

func analyzeFacts(t *testing.T, srcs []cpg.Source, headers map[string]string, cache *analysiscache.Cache) *Run {
	t.Helper()
	run, err := Analyze(context.Background(), Request{
		Sources: srcs, Headers: headers,
		Options: Options{Workers: 1, Cache: cache},
		Trace:   obs.New("facts-cache-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestFactsEntriesFollowTheirInputs pins what a per-file facts entry is
// keyed on. Each scenario warms a cache with v1, analyzes v2 on it, and
// requires reports byte-identical to an uncached v2 run plus the exact
// hit/miss split: an edit that leaves discovery and the global names alone
// re-derives only the files whose own input changed (the file itself, or a
// header it includes), while an edit that changes what event extraction
// looks up (the API table, the global names) re-derives every file — in
// each case including a file whose own text did not change but whose facts
// did, which a key over the file alone would serve stale. A stale file's
// report entry misses too, so its facts entry is consulted and misses; of
// the other files, only those defining a P6 input consult theirs, and hit.
func TestFactsEntriesFollowTheirInputs(t *testing.T) {
	user := cpg.Source{Path: "drivers/b/user.c", Content: `
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
}`}
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
	// The deviated API stops incrementing: discovery no longer registers
	// my_pm_get_sync, so user.c's P1 report must go away.
	apiEdited := bytes.Replace([]byte(api), []byte("atomic_inc(&dev->usage);"), []byte("touch(dev);"), 1)
	const global = "struct sock *monitor_sk;\n"
	grab := cpg.Source{Path: "drivers/c/grab.c", Content: `#include "grab.h"
static void hold(void)
{
	struct device_node *np = GRAB("/soc");
	use_node(np);
}`}

	v1 := []cpg.Source{{Path: "drivers/a/api.c", Content: api + global}, user, grab}
	h1 := map[string]string{"grab.h": "#define GRAB(p) of_find_node_by_path(p)\n"}
	with := func(i int, content string) []cpg.Source {
		out := append([]cpg.Source(nil), v1...)
		out[i].Content = content
		return out
	}
	cases := []factsEdit{
		{name: "comment in one file", v1: v1, v2: with(1, user.Content+"\n/* edit */\n"), h1: h1, h2: h1,
			stale: []string{user.Path}},
		{name: "header of one file", v1: v1, v2: v1, h1: h1,
			h2:    map[string]string{"grab.h": "#define GRAB(p) lookup_path(p)\n"},
			stale: []string{grab.Path}, wantReportChange: true},
		{name: "discovery", v1: v1, v2: with(0, string(apiEdited)+global), h1: h1, h2: h1,
			wantReportChange: true},
		{name: "global names", v1: v1, v2: with(0, api), h1: h1, h2: h1,
			wantReportChange: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := analysiscache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer cache.Close()
			before := analyzeFacts(t, tc.v1, tc.h1, cache)
			if got := before.Metric("cache.facts.miss"); got != 3 {
				t.Fatalf("cold run: %d facts misses, want 3 (one per file)", got)
			}
			after := analyzeFacts(t, tc.v2, tc.h2, cache)
			fresh := analyzeFacts(t, tc.v2, tc.h2, nil)
			if !bytes.Equal(reportBytes(after.Reports), reportBytes(fresh.Reports)) {
				t.Fatalf("cached run differs from uncached run:\ncached: %+v\nfresh:  %+v", after.Reports, fresh.Reports)
			}
			if changed := !bytes.Equal(reportBytes(before.Reports), reportBytes(fresh.Reports)); changed != tc.wantReportChange {
				t.Fatalf("fixture: edit changed the reports = %v, want %v", changed, tc.wantReportChange)
			}
			stale := map[string]bool{}
			for _, src := range tc.v2 {
				stale[src.Path] = tc.stale == nil
			}
			for _, path := range tc.stale {
				stale[path] = true
			}
			var hits, misses int64
			for path, isStale := range stale {
				switch {
				case isStale:
					misses++
				case unitInputFiles(t, after.Unit)[path]:
					hits++
				}
			}
			if hit, miss := after.Metric("cache.facts.hit"), after.Metric("cache.facts.miss"); hit != hits || miss != misses {
				t.Fatalf("facts entries: %d hits, %d misses, want %d, %d", hit, miss, hits, misses)
			}
			if hit, miss := after.Metric("cache.reports.hit"), after.Metric("cache.reports.miss"); hit != 3-misses || miss != misses {
				t.Fatalf("report entries: %d hits, %d misses, want %d, %d", hit, miss, 3-misses, misses)
			}
		})
	}
}

// TestWarmEditConsultsWhatItReads pins what a steady comment edit looks
// up. Every file that defines functions gets one report entry lookup, and
// only the edited file's misses. A facts entry is consulted only where the
// run reads its facts: the edited file's (its report entry missed, so the
// checkers run over it) and those of the files that define a P6 input. And
// what depends on the exchange alone is derived once: the cold run derives
// the per-exchange fingerprints, and the two edits, which reuse its
// exchange, derive nothing.
func TestWarmEditConsultsWhatItReads(t *testing.T) {
	srcs, headers := demoSet()
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cold := analyzeFacts(t, srcs, headers, cache)
	if got := cold.Metric("exchange.derived"); got != 1 {
		t.Fatalf("cold run derived the exchange's fingerprints %d times, want 1", got)
	}
	inputs := unitInputFiles(t, cold.Unit)
	defines := map[string]bool{}
	for _, f := range facts.NewUnit(cold.Unit).Files() {
		defines[f.Path] = true
	}
	// One edit to a file outside the P6 input set, then one inside it.
	edits := []int{-1, -1}
	for i, src := range srcs {
		k := 0
		if inputs[src.Path] {
			k = 1
		}
		if edits[k] < 0 && defines[src.Path] {
			edits[k] = i
		}
	}
	if edits[0] < 0 || edits[1] < 0 || len(inputs) < 2 {
		t.Fatalf("fixture too weak: edits %v, %d P6 input files", edits, len(inputs))
	}
	for n, i := range edits {
		srcs = withEdit(srcs, i, fmt.Sprintf("edit %d", n))
		run := analyzeFacts(t, srcs, headers, cache)
		edited := srcs[i].Path
		consulted := int64(len(inputs))
		if !inputs[edited] {
			consulted++
		}
		if hit, miss := run.Metric("cache.facts.hit"), run.Metric("cache.facts.miss"); hit != consulted-1 || miss != 1 {
			t.Errorf("edit of %s: facts entries %d hits, %d misses, want %d, 1", edited, hit, miss, consulted-1)
		}
		if hit, miss := run.Metric("cache.reports.hit"), run.Metric("cache.reports.miss"); hit != int64(len(defines))-1 || miss != 1 {
			t.Errorf("edit of %s: report entries %d hits, %d misses, want %d, 1", edited, hit, miss, len(defines)-1)
		}
		if reused, derived := run.Metric("exchange.reused"), run.Metric("exchange.derived"); reused != 1 || derived != 0 {
			t.Errorf("edit of %s: exchange reused %d, derived %d times, want 1, 0", edited, reused, derived)
		}
	}
}
