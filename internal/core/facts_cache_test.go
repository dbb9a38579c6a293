package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// factsEdit is one soundness scenario for the per-file facts entries: a
// two-version corpus (sources and headers) where v2 makes one edit, the
// facts entry outcome that edit must produce on a cache warmed by v1, and
// whether the edit changes the reports at all.
type factsEdit struct {
	name             string
	v1, v2           []cpg.Source
	h1, h2           map[string]string
	hits, misses     int64
	wantReportChange bool
}

// reportBytes is a full-fidelity encoding of a report list (witnesses
// included), so equal bytes mean equal reports.
func reportBytes(rs []Report) []byte {
	return encodeUnitEntry(&unitEntry{Reports: stripWitnessBlocks(rs)})
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
// did, which a key over the file alone would serve stale.
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
			hits: 2, misses: 1},
		{name: "header of one file", v1: v1, v2: v1, h1: h1,
			h2:   map[string]string{"grab.h": "#define GRAB(p) lookup_path(p)\n"},
			hits: 2, misses: 1, wantReportChange: true},
		{name: "discovery", v1: v1, v2: with(0, string(apiEdited)+global), h1: h1, h2: h1,
			hits: 0, misses: 3, wantReportChange: true},
		{name: "global names", v1: v1, v2: with(0, api), h1: h1, h2: h1,
			hits: 0, misses: 3, wantReportChange: true},
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
			if hit, miss := after.Metric("cache.facts.hit"), after.Metric("cache.facts.miss"); hit != tc.hits || miss != tc.misses {
				t.Fatalf("facts entries: %d hits, %d misses, want %d, %d", hit, miss, tc.hits, tc.misses)
			}
		})
	}
}
