package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/obs"
)

// TestPipelineSurvivesCacheLoss warms a cache, then destroys the cache
// directory out from under it and re-runs the pipeline.
//
// The two legs pin two different survival modes. A fresh handle over the
// lost directory (a process restart after losing the disk tier) must
// degrade to clean misses and recompute. The original handle — even with
// the directory replaced by a regular file so every disk operation fails —
// legitimately keeps serving from the in-memory tier; disk loss costs
// nothing until restart. Both must render byte-identically to the uncached
// baseline.
func TestPipelineSurvivesCacheLoss(t *testing.T) {
	_, ss := smallSet(t)
	want := RenderRun(Run(ss, 1, nil, nil))

	t.Run("restart-after-loss", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "cache")
		cache, err := analysiscache.Open(dir, analysiscache.WithMemory(0))
		if err != nil {
			t.Fatal(err)
		}
		cold := Run(ss, 1, cache, obs.New("degrade"))
		if got := RenderRun(cold); got != want {
			t.Fatalf("cold cached run differs from baseline:\n%s", firstDiff(want, got))
		}
		warm := Run(ss, 1, cache, obs.New("degrade"))
		if warm.Metric("cache.unit.hit") != 1 {
			t.Fatal("warm run should hit the unit cache")
		}

		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		reopened, err := analysiscache.Open(dir, analysiscache.WithMemory(0))
		if err != nil {
			t.Fatal(err)
		}
		degraded := Run(ss, 1, reopened, obs.New("degrade"))
		if degraded.Metric("cache.unit.hit") != 0 {
			t.Fatal("a restart after cache loss cannot claim a unit hit")
		}
		if got := RenderRun(degraded); got != want {
			t.Fatalf("degraded run differs from baseline:\n%s", firstDiff(want, got))
		}
	})

	t.Run("l1-enabled", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "cache")
		cache, err := analysiscache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cold := Run(ss, 1, cache, obs.New("degrade"))
		if got := RenderRun(cold); got != want {
			t.Fatalf("cold cached run differs from baseline:\n%s", firstDiff(want, got))
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		survived := Run(ss, 1, cache, obs.New("degrade"))
		if survived.Metric("cache.unit.hit") != 1 || survived.Metric("cache.l1.hit") == 0 {
			t.Fatalf("same-handle run must keep serving from L1 through disk loss: unit.hit=%d l1.hit=%d",
				survived.Metric("cache.unit.hit"), survived.Metric("cache.l1.hit"))
		}
		if got := RenderRun(survived); got != want {
			t.Fatalf("L1-served run differs from baseline:\n%s", firstDiff(want, got))
		}
	})
}
