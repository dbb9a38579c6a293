package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/watch"
)

// renderCLI renders a run exactly as the refcheck CLI (and -watch mode) does,
// so equality here is byte-identity of the user-visible report.
func renderCLI(run *core.Run) string {
	var b bytes.Buffer
	render.WriteReports(&b, run.Reports)
	render.WriteSummary(&b, run.Reports, run.Summary)
	return b.String()
}

// unitInputFiles returns the files that define an input of the unit-scoped
// checkers (P6) in u: the files whose facts a run reads even when their
// report entries hit.
func unitInputFiles(t *testing.T, u *cpg.Unit) map[string]bool {
	t.Helper()
	engine, err := core.NewEngineFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, c := range engine.Checkers {
		if uc, ok := c.(core.UnitChecker); ok {
			for _, name := range uc.Inputs(u.DB, u.Decls) {
				if f := u.Decls.Funcs[name]; f.Body {
					files[f.File] = true
				}
			}
		}
	}
	return files
}

// TestWatchIncrementalRerun is the watch-mode guarantee end to end: a watch
// loop over an on-disk tree with a persistent cache handle re-analyzes after
// a one-file edit by re-reading that file alone and recomputing exactly its
// front end, facts and checker results (every other file is an L1 hit for
// all three), and the incremental report is byte-identical to a cold run
// over the edited tree.
func TestWatchIncrementalRerun(t *testing.T) {
	dir := t.TempDir()
	c, sources := kernelCorpus()
	if err := loader.WriteTree(dir, sources, c.Headers); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, filepath.FromSlash(sources[0].Path))

	cache, err := analysiscache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	// The refcheck -watch analysis closure: reload the changed files,
	// analyze with the shared cache handle, render as the CLI would.
	var outputs []string
	var runs []*core.Run
	var tree *loader.Tree
	analyze := func(changed []string) error {
		var err error
		tree, err = loader.Reload(tree, []string{dir}, changed)
		if err != nil {
			return err
		}
		run, err := core.Analyze(context.Background(), core.Request{
			Sources: tree.Sources, Headers: tree.Headers,
			Options: core.Options{Cache: cache},
			Trace:   obs.New("watch-test"),
		})
		if err != nil {
			return err
		}
		outputs = append(outputs, renderCLI(run))
		runs = append(runs, run)
		return nil
	}

	err = watch.Watch(context.Background(), watch.Config{
		Roots:    []string{dir},
		Interval: 10 * time.Millisecond,
		MaxRuns:  2,
		Run: func(changed []string) error {
			if err := analyze(changed); err != nil {
				return err
			}
			if len(outputs) == 1 {
				// The synthetic edit stream: append a comment to one file.
				// Appending at EOF shifts no report line numbers, so the
				// rendered output must not change at all.
				f, err := os.OpenFile(target, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				if _, err := f.WriteString("/* watch edit */\n"); err != nil {
					return err
				}
				return f.Close()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("watch performed %d runs, want 2", len(runs))
	}

	// Exactly-one-file recompute: on the re-run every unedited file's front
	// end comes from the warm cache; only the edited file misses.
	n := int64(len(sources))
	if hits := runs[1].Metric("frontend.cache.hit"); hits != n-1 {
		t.Errorf("re-run frontend hits = %d, want %d (all but the edited file)", hits, n-1)
	}
	if misses := runs[1].Metric("frontend.cache.miss"); misses != 1 {
		t.Errorf("re-run frontend misses = %d, want exactly 1 (the edited file)", misses)
	}
	if cold := runs[0].Metric("frontend.cache.miss"); cold != n {
		t.Errorf("cold run frontend misses = %d, want %d", cold, n)
	}
	// The cold run's parses became the entries' memos, so the re-run parses
	// only the edited file.
	if reused := runs[1].Metric("frontend.parse.reused"); reused != n-1 {
		t.Errorf("re-run reused %d parses, want %d", reused, n-1)
	}
	if reused := runs[0].Metric("frontend.parse.reused"); reused != 0 {
		t.Errorf("cold run reused %d parses, want 0", reused)
	}

	// The same holds one layer down: only the edited file's facts entry
	// misses, and only its functions' facts are derived again. A facts
	// entry is consulted only where its facts are read: the edited file's,
	// whose report entry misses, and those of the files defining an input
	// of P6, the unit-scoped checker, which hit.
	inputs := unitInputFiles(t, runs[0].Unit)
	var files, inputFiles, editedFuncs int64
	for _, f := range facts.NewUnit(runs[0].Unit).Files() {
		files++
		if f.Path == sources[0].Path {
			editedFuncs = int64(len(f.Names))
		} else if inputs[f.Path] {
			inputFiles++
		}
	}
	if editedFuncs == 0 {
		t.Fatalf("fixture too weak: %s defines no functions", sources[0].Path)
	}
	if inputFiles == 0 {
		t.Fatal("fixture too weak: no unedited file defines a P6 input")
	}
	if hits, misses := runs[1].Metric("cache.facts.hit"), runs[1].Metric("cache.facts.miss"); hits != inputFiles || misses != 1 {
		t.Errorf("re-run facts entries: %d hits, %d misses, want %d, 1", hits, misses, inputFiles)
	}
	if got := runs[1].Metric("facts.computed"); got != editedFuncs {
		t.Errorf("re-run computed facts for %d functions, want %d (the edited file's)", got, editedFuncs)
	}
	// And one more: only the edited file's report entry misses, and only
	// its functions go through the checkers again.
	if hits, misses := runs[1].Metric("cache.reports.hit"), runs[1].Metric("cache.reports.miss"); hits != files-1 || misses != 1 {
		t.Errorf("re-run report entries: %d hits, %d misses, want %d, 1", hits, misses, files-1)
	}
	if got := runs[1].Metric("checker.functions"); got != editedFuncs {
		t.Errorf("re-run checked %d functions, want %d (the edited file's)", got, editedFuncs)
	}

	// Byte-identity against a cold, cache-free run over the edited tree.
	tree, err = loader.LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Analyze(context.Background(), core.Request{
		Sources: tree.Sources, Headers: tree.Headers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outputs[1] != renderCLI(fresh) {
		t.Error("incremental watch output differs from a cold run over the edited tree")
	}
	// And the EOF comment edit must not have changed any diagnostics.
	if outputs[1] != outputs[0] {
		t.Error("EOF comment edit changed the rendered report")
	}
}
