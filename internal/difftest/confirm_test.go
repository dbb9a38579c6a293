package difftest

import (
	"context"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestUnitEntryIsConfirmationAgnostic pins that the unit entry is stored
// before confirmation: whichever Confirm value computes the entry, a run
// with the other value served from it — out of the leader's L1 and from
// disk on a reopened handle — renders exactly what an uncached run with its
// own value renders.
func TestUnitEntryIsConfirmationAgnostic(t *testing.T) {
	_, ss := smallSet(t)
	analyze := func(confirm bool, cache *analysiscache.Cache) *core.Run {
		run, err := core.Analyze(context.Background(), core.Request{
			Sources: ss.Sources, Headers: ss.Headers,
			Options: core.Options{Workers: 1, Confirm: confirm, Cache: cache},
			Trace:   obs.New("confirm-test"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	want := map[bool]string{false: RenderRun(analyze(false, nil)), true: RenderRun(analyze(true, nil))}
	if want[false] == want[true] {
		t.Fatal("fixture too weak: confirmation changes no rendered report")
	}

	for _, lead := range []bool{true, false} {
		dir := t.TempDir()
		cache, err := analysiscache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		leader := analyze(lead, cache)
		if leader.Metric("cache.singleflight.leader") != 1 {
			t.Fatalf("Confirm=%v: the first run did not compute the unit entry", lead)
		}
		if got := RenderRun(leader); got != want[lead] {
			t.Fatalf("Confirm=%v leader differs from an uncached run:\n%s", lead, firstDiff(want[lead], got))
		}
		// A computed run flushes its entries, so a second handle on the
		// directory reads the leader's entry from disk.
		reopened, err := analysiscache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, follow := range []struct {
			tier  string
			cache *analysiscache.Cache
		}{{"L1", cache}, {"disk", reopened}} {
			run := analyze(!lead, follow.cache)
			if run.Metric("cache.unit.hit") != 1 {
				t.Fatalf("Confirm=%v after a Confirm=%v leader (%s): unit entry missed", !lead, lead, follow.tier)
			}
			if got := RenderRun(run); got != want[!lead] {
				t.Fatalf("Confirm=%v served from a Confirm=%v leader's entry (%s) differs from an uncached run:\n%s",
					!lead, lead, follow.tier, firstDiff(want[!lead], got))
			}
		}
		cache.Close()
		reopened.Close()
	}
}
