package difftest

import (
	"context"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/facts"
	"repro/internal/obs"
)

// runOpts analyzes the set with an explicit checker selection.
func runOpts(ss SourceSet, cache *analysiscache.Cache, checkers []core.Pattern) *core.Run {
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: ss.Sources, Headers: ss.Headers,
		Options: core.Options{Workers: 1, Confirm: true, Cache: cache, Checkers: checkers},
		Trace:   obs.New("subset-test"),
	})
	if err != nil {
		panic("difftest: " + err.Error())
	}
	return run
}

// TestCheckerSubsetCacheIsolation proves the two cache-key claims the
// -checkers flag depends on: subset runs and full runs never share a
// unit-level entry (no poisoning in either direction), while both share the
// checker-independent per-file facts entries (a subset run against a
// full-run cache skips straight to the pattern queries).
func TestCheckerSubsetCacheIsolation(t *testing.T) {
	ss := FromCorpus(corpus.Generate(corpus.Spec{Seed: 1}))
	subset := []core.Pattern{core.P1, core.P4}

	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Uncached references for both selections.
	fullRef := RenderRun(runOpts(ss, nil, nil))
	subsetRef := RenderRun(runOpts(ss, nil, subset))
	if fullRef == subsetRef {
		t.Fatal("fixture too weak: full and subset runs render identically")
	}

	// Cold full run populates the unit entry and one facts entry per file
	// that defines functions.
	cold := runOpts(ss, cache, nil)
	if cold.Metric("cache.unit.hit") != 0 || cold.Metric("cache.facts.hit") != 0 {
		t.Fatalf("cold run hit the cache: unit=%d facts=%d",
			cold.Metric("cache.unit.hit"), cold.Metric("cache.facts.hit"))
	}
	files := int64(len(facts.NewUnit(cold.Unit).Files()))
	if got := cold.Metric("cache.facts.miss"); got != files {
		t.Fatalf("cold run facts misses = %d, want one per file with functions (%d)", got, files)
	}
	if got := RenderRun(cold); got != fullRef {
		t.Fatalf("cold cached run differs from uncached run:\n%s", firstDiff(fullRef, got))
	}

	// Subset run against the full-run cache: different unit key (miss), same
	// facts key (hit), byte-identical to the uncached subset run.
	sub := runOpts(ss, cache, subset)
	if sub.Metric("cache.unit.hit") != 0 {
		t.Fatal("subset run must not reuse the full run's unit entry")
	}
	if hit, miss := sub.Metric("cache.facts.hit"), sub.Metric("cache.facts.miss"); hit != files || miss != 0 {
		t.Fatalf("subset run should reuse every file's checker-independent facts entry: %d hits, %d misses, want %d, 0",
			hit, miss, files)
	}
	if got := RenderRun(sub); got != subsetRef {
		t.Fatalf("cached subset run differs from uncached subset run:\n%s", firstDiff(subsetRef, got))
	}

	// The subset run must not have poisoned the full-run entry…
	warmFull := runOpts(ss, cache, nil)
	if warmFull.Metric("cache.unit.hit") != 1 {
		t.Fatal("full rerun missed its unit entry after a subset run")
	}
	if got := RenderRun(warmFull); got != fullRef {
		t.Fatalf("warm full run differs from baseline:\n%s", firstDiff(fullRef, got))
	}
	// …and the subset run now has its own warm entry.
	warmSub := runOpts(ss, cache, subset)
	if warmSub.Metric("cache.unit.hit") != 1 {
		t.Fatal("subset rerun missed its own unit entry")
	}
	if got := RenderRun(warmSub); got != subsetRef {
		t.Fatalf("warm subset run differs from subset baseline:\n%s", firstDiff(subsetRef, got))
	}

	// Spelling the full selection explicitly is the same engine — and the
	// same cache entry — as the nil default.
	explicit := runOpts(ss, cache, core.RegisteredPatterns())
	if explicit.Metric("cache.unit.hit") != 1 {
		t.Fatal("explicit full selection should share the default selection's unit entry")
	}
	if got := RenderRun(explicit); got != fullRef {
		t.Fatalf("explicit full selection differs from default:\n%s", firstDiff(fullRef, got))
	}
}
