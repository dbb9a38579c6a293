package repro

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/difftest"
	"repro/internal/obs"
)

func corpusInputs() ([]cpg.Source, map[string]string) {
	c, sources := kernelCorpus()
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}
	return sources, headers
}

func runWithCache(t *testing.T, sources []cpg.Source, headers map[string]string, workers int, dir string) *core.Run {
	t.Helper()
	opt := core.Options{Workers: workers, Confirm: true}
	if dir != "" {
		c, err := analysiscache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt.Cache = c
	}
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources, Headers: headers, Options: opt, Trace: obs.New("cache-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCacheDeterminismMatrix is the PR's central guarantee: rendered reports
// are byte-identical across {workers 1, workers 8} × {no cache, cold cache,
// warm cache, one-file-invalidated cache}.
func TestCacheDeterminismMatrix(t *testing.T) {
	sources, headers := corpusInputs()

	base := difftest.RenderRun(runWithCache(t, sources, headers, 1, ""))
	if !strings.Contains(base, "confirmed=true") {
		t.Fatal("baseline run produced no confirmed reports; corpus broken?")
	}

	for _, workers := range []int{1, 8} {
		if got := difftest.RenderRun(runWithCache(t, sources, headers, workers, "")); got != base {
			t.Errorf("workers=%d no-cache differs from baseline", workers)
		}
		dir := t.TempDir()
		cold := runWithCache(t, sources, headers, workers, dir)
		if cold.Metric("cache.unit.hit") != 0 {
			t.Errorf("workers=%d: cold run claims a unit hit", workers)
		}
		if got := difftest.RenderRun(cold); got != base {
			t.Errorf("workers=%d cold-cache differs from baseline", workers)
		}
		warm := runWithCache(t, sources, headers, workers, dir)
		if warm.Metric("cache.unit.hit") != 1 || warm.Metric("pipeline.files_skipped") != int64(len(sources)) {
			t.Errorf("workers=%d: warm run hit=%d skipped=%d, want a full unit hit over %d files",
				workers, warm.Metric("cache.unit.hit"), warm.Metric("pipeline.files_skipped"), len(sources))
		}
		if got := difftest.RenderRun(warm); got != base {
			t.Errorf("workers=%d warm-cache differs from baseline", workers)
		}
	}
}

// TestCacheOneFileInvalidation edits a single source on a warm cache: only
// that file may re-preprocess, and the reports must match an uncached run
// over the edited corpus exactly.
func TestCacheOneFileInvalidation(t *testing.T) {
	sources, headers := corpusInputs()
	dir := t.TempDir()
	runWithCache(t, sources, headers, 8, dir) // populate

	edited := append([]cpg.Source(nil), sources...)
	edited[0] = cpg.Source{
		Path:    edited[0].Path,
		Content: edited[0].Content + "\nvoid cache_probe_added(void) { }\n",
	}

	want := difftest.RenderRun(runWithCache(t, edited, headers, 1, ""))
	got := runWithCache(t, edited, headers, 8, dir)
	if got.Metric("cache.unit.hit") != 0 {
		t.Fatal("edited corpus must miss the unit cache")
	}
	if got.Metric("frontend.cache.miss") != 1 || got.Metric("frontend.cache.hit") != int64(len(sources)-1) {
		t.Errorf("front-end stats hit=%d miss=%d, want exactly 1 miss and %d hits",
			got.Metric("frontend.cache.hit"), got.Metric("frontend.cache.miss"), len(sources)-1)
	}
	if difftest.RenderRun(got) != want {
		t.Error("partially-invalidated cached run differs from uncached run over the edited corpus")
	}

	// The edited corpus is now cached too; the original corpus entry must
	// still be intact (keys are content-addressed, not per-path slots).
	if again := runWithCache(t, sources, headers, 8, dir); again.Metric("cache.unit.hit") != 1 {
		t.Error("original corpus entry was clobbered by the edited run")
	}
}

// TestCacheCorruptionFallsBack truncates every cache entry on disk; the next
// run must silently fall back to full re-analysis with identical output.
func TestCacheCorruptionFallsBack(t *testing.T) {
	sources, headers := corpusInputs()
	base := difftest.RenderRun(runWithCache(t, sources, headers, 1, ""))

	dir := t.TempDir()
	runWithCache(t, sources, headers, 8, dir) // populate
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, data[:len(data)/3], 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("cache directory holds no entries after a cold run")
	}

	run := runWithCache(t, sources, headers, 8, dir)
	if run.Metric("cache.unit.hit") != 0 || run.Metric("frontend.cache.hit") != 0 {
		t.Errorf("corrupt cache produced hits: unit=%d frontend=%d",
			run.Metric("cache.unit.hit"), run.Metric("frontend.cache.hit"))
	}
	if run.Metric("cache.read.corrupt") == 0 {
		t.Error("corrupt entries were read but cache.read.corrupt is zero")
	}
	if difftest.RenderRun(run) != base {
		t.Error("corrupt-cache run differs from baseline")
	}

	// The rewritten entries must be valid again.
	if again := runWithCache(t, sources, headers, 8, dir); again.Metric("cache.unit.hit") != 1 {
		t.Error("cache did not repair itself after corruption")
	}
}

// TestConcurrentAnalyzeSingleFlight: N concurrent identical requests against
// one shared cold cache must perform exactly one computation — the others
// either wait on the in-flight leader or hit the entry it just published —
// and every run must render byte-identically to the uncached baseline.
func TestConcurrentAnalyzeSingleFlight(t *testing.T) {
	sources, headers := corpusInputs()
	base := difftest.RenderRun(runWithCache(t, sources, headers, 1, ""))

	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	runs := make([]*core.Run, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			runs[i], errs[i] = core.Analyze(context.Background(), core.Request{
				Sources: sources, Headers: headers,
				Options: core.Options{Workers: 2, Confirm: true, Cache: cache},
				Trace:   obs.New("cache-test"),
			})
		}(i)
	}
	close(start)
	wg.Wait()

	var leaders, served int64
	for i, run := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := difftest.RenderRun(run); got != base {
			t.Errorf("concurrent run %d differs from baseline", i)
		}
		leaders += run.Metric("cache.singleflight.leader")
		served += run.Metric("cache.singleflight.wait") + run.Metric("cache.unit.hit")
	}
	if leaders != 1 {
		t.Errorf("concurrent identical requests performed %d computations, want exactly 1", leaders)
	}
	if served != n-1 {
		t.Errorf("%d runs were served from the leader's result, want %d", served, n-1)
	}
}

// TestCacheConfigFingerprint: two runs differing only in ConfigFP must not
// share unit-cache entries.
func TestCacheConfigFingerprint(t *testing.T) {
	sources, headers := corpusInputs()
	dir := t.TempDir()
	cache, err := analysiscache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runFP := func(fp string) *core.Run {
		run, err := core.Analyze(context.Background(), core.Request{
			Sources: sources, Headers: headers,
			Options: core.Options{Workers: 8, Cache: cache, ConfigFP: fp},
			Trace:   obs.New("cache-test"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	if a := runFP("cfg-a"); a.Metric("cache.unit.hit") != 0 {
		t.Fatal("first run cannot hit")
	}
	if b := runFP("cfg-b"); b.Metric("cache.unit.hit") != 0 {
		t.Error("different ConfigFP must not share unit entries")
	}
	if c := runFP("cfg-a"); c.Metric("cache.unit.hit") != 1 {
		t.Error("same ConfigFP must hit the warm entry")
	}
}
