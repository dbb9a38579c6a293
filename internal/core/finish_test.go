package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
)

// wholeFinish is the finish the engine ran before it finished file by
// file: every candidate of the unit merged in checker-major, function-name
// order, then one applyDeferrals and one finalize over all of them.
func wholeFinish(e *Engine, cells [][][]Report, units *unitReports) []Report {
	var all []Report
	for ci, c := range e.Checkers {
		if _, ok := c.(UnitChecker); ok {
			all = append(all, units.all[ci]...)
			continue
		}
		for _, cell := range cells {
			if cell != nil {
				all = append(all, cell[ci]...)
			}
		}
	}
	return finalize(applyDeferrals(all, nil))
}

// TestPerFileFinishMatchesWhole: the path-ordered concatenation of the
// files' finalized lists is byte for byte the whole unit's finalize, on
// the golden corpus, a scale-2 tree and every release of a four-release
// set.
func TestPerFileFinishMatchesWhole(t *testing.T) {
	sets := map[string]*corpus.Corpus{
		"golden":  corpus.Generate(corpus.Spec{Seed: 1}),
		"scale-2": corpus.Generate(corpus.Spec{Seed: 1, Scale: 2}),
	}
	rs := corpus.GenerateReleases(corpus.Spec{Seed: 1, Releases: 4}, nil)
	for r, tag := range rs.Tags {
		sets["release "+tag] = rs.At(r)
	}
	for name, c := range sets {
		srcs := make([]cpg.Source, len(c.Files))
		for i, f := range c.Files {
			srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
		}
		u := (&cpg.Builder{Headers: newHeaderProvider(c.Headers)}).Build(srcs)
		uf := facts.NewUnit(u)
		e := NewEngine()
		cells := e.checkFunctions(context.Background(), uf, nil)
		units := e.runUnit(&UnitView{DB: u.DB, Decls: u.Decls, Facts: func(name string) *facts.Data {
			if ff := uf.Function(name); ff != nil {
				return ff.Data
			}
			return nil
		}}, false)
		want := wholeFinish(e, cells, units)
		got, segs, _ := e.finish(uf.Index(), cells, units, nil)
		if len(want) == 0 {
			t.Fatalf("%s: no reports", name)
		}
		if !bytes.Equal(reportBytes(got), reportBytes(want)) {
			t.Errorf("%s: per-file finish (%d reports) differs from the whole-unit finish (%d)", name, len(got), len(want))
		}
		for i := 1; i < len(segs); i++ {
			if segs[i-1].path >= segs[i].path {
				t.Fatalf("%s: segments out of path order: %s before %s", name, segs[i-1].path, segs[i].path)
			}
		}
		for _, s := range segs {
			for _, r := range s.reports {
				if r.File != s.path {
					t.Fatalf("%s: %s's segment holds a report on %s", name, s.path, r.File)
				}
			}
		}
	}
}

// analyzeChecked runs Analyze over srcs on cache, requires the output to
// equal an uncached run's and finish.files.refinalized to read want, and
// returns the unit entry the run left in the cache.
func analyzeChecked(t *testing.T, step string, srcs []cpg.Source, headers map[string]string, cache *analysiscache.Cache, want int64) *unitEntry {
	t.Helper()
	run, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers,
		Options: Options{Workers: 1, Cache: cache}, Trace: obs.New("finish-test")})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers, Options: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(run.Reports), reportBytes(ref.Reports)) {
		t.Fatalf("%s: cached output differs from an uncached run", step)
	}
	if got := run.Metric("finish.files.refinalized"); got != want {
		t.Errorf("%s: finish.files.refinalized = %d, want %d", step, got, want)
	}
	ent, ok := lookupUnit(cache, unitCacheKey("", NewEngine().patternsFP(), keyedSources(srcs), headers))
	if !ok {
		t.Fatalf("%s: no unit entry stored", step)
	}
	return ent
}

// TestCommentEditRefinalizesOneFile: a cold run finalizes every file (each
// defines functions), and after it a comment edit to a file outside P6's
// inputs finalizes that file alone: every other file keeps its segment.
func TestCommentEditRefinalizesOneFile(t *testing.T) {
	srcs, headers := demoSet()
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cold := analyzeChecked(t, "cold", srcs, headers, cache, int64(len(srcs)))
	inputs := unitInputFiles(t, (&cpg.Builder{Headers: newHeaderProvider(headers)}).Build(srcs))
	edited := -1
	for i, s := range srcs {
		if !inputs[s.Path] && segOf(cold, s.Path) != nil {
			edited = i
			break
		}
	}
	if edited < 0 {
		t.Fatal("no reporting file outside P6's inputs")
	}
	srcs = withEdit(srcs, edited, "comment")
	warm := analyzeChecked(t, "comment edit", srcs, headers, cache, 1)
	for _, s := range warm.Segments {
		if c := segOf(cold, s.path); (c == s) == (s.path == srcs[edited].Path) {
			t.Errorf("%s: segment kept %v, want it kept exactly when the file was not edited", s.path, c == s)
		}
	}
}

func segOf(ent *unitEntry, path string) *segment {
	for _, s := range ent.Segments {
		if s.path == path {
			return s
		}
	}
	return nil
}

// p6Tree is a three-file tree whose name-paired acquire and release lie in
// different files: foo_register (a.c) keeps a node reference that
// foo_unregister (b.c) never puts, so P6 reports on a.c; c.c is outside
// P6's inputs.
func p6Tree() []cpg.Source {
	return []cpg.Source{
		{Path: "drivers/foo/a.c", Content: `
struct device_node *cached;
int foo_register(void)
{
	cached = of_find_node_by_path("/foo");
	return 0;
}
`},
		{Path: "drivers/foo/b.c", Content: `
extern struct device_node *cached;
void foo_unregister(void)
{
}
`},
		{Path: "drivers/foo/c.c", Content: `
static int scan(void)
{
	struct device_node *np = of_find_node_by_path("/bar");
	if (!np)
		return -1;
	return 0;
}
`},
	}
}

// TestP6InputEditRefinalizesReceivers: an edit inside P6's inputs
// finalizes again the edited file and the files whose P6 reports changed.
// A comment edit to the release file changes no P6 report, so it alone is
// finalized; a fix there drops the report on the acquiring file, so both
// are, and the file outside P6's inputs keeps its segment.
func TestP6InputEditRefinalizesReceivers(t *testing.T) {
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srcs := p6Tree()
	edit := func(from, to string) {
		srcs = append([]cpg.Source(nil), srcs...)
		srcs[1].Content = strings.Replace(srcs[1].Content, from, to, 1)
	}
	cold := analyzeChecked(t, "cold", srcs, nil, cache, 3)
	if s := segOf(cold, "drivers/foo/a.c"); s == nil || len(withPattern(s.reports, P6)) != 1 {
		t.Fatalf("cold: want one P6 report on a.c, segments %+v", cold.Segments)
	}
	edit("{\n}\n", "{\n}\n/* comment */\n")
	before := analyzeChecked(t, "comment edit to the release file", srcs, nil, cache, 1)
	if a, c := segOf(before, "drivers/foo/a.c"), segOf(cold, "drivers/foo/a.c"); a != c {
		t.Errorf("a.c's segment was finalized again after a comment edit to b.c")
	}
	edit("{\n}\n", "{\n\tof_node_put(cached);\n}\n")
	after := analyzeChecked(t, "fix in the release file", srcs, nil, cache, 2)
	if s := segOf(after, "drivers/foo/a.c"); s != nil && len(withPattern(s.reports, P6)) != 0 {
		t.Fatalf("the fix left a P6 report on a.c: %+v", s.reports)
	}
	if b, a := segOf(before, "drivers/foo/c.c"), segOf(after, "drivers/foo/c.c"); b == nil || a != b {
		t.Errorf("c.c's segment was finalized again, want it kept")
	}
}
