package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/gitlog"
	"repro/internal/mine"
	"repro/internal/study"
)

// TestDiskRoundTrip writes the corpus to a real directory (the refgen path),
// reads it back through the filesystem (the refcheck path), and verifies the
// analysis matches the in-memory run exactly.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := corpus.Generate(corpus.Spec{Seed: 1})

	for _, f := range c.Files {
		path := filepath.Join(dir, f.Path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		path := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		headers[p] = s
	}

	// Read back from disk.
	var sources []cpg.Source
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".c" {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		rel, _ := filepath.Rel(dir, path)
		sources = append(sources, cpg.Source{Path: rel, Content: string(data)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != len(c.Files) {
		t.Fatalf("read %d files, wrote %d", len(sources), len(c.Files))
	}

	diskUnit := (&cpg.Builder{Headers: cpp.MapFiles(headers)}).Build(sources)
	diskReports := core.NewEngine().CheckUnit(diskUnit)

	var memSources []cpg.Source
	for _, f := range c.Files {
		memSources = append(memSources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	memUnit := (&cpg.Builder{Headers: cpp.MapFiles(c.Headers)}).Build(memSources)
	memReports := core.NewEngine().CheckUnit(memUnit)

	if len(diskReports) != len(memReports) {
		t.Fatalf("disk %d reports, memory %d", len(diskReports), len(memReports))
	}
	for i := range diskReports {
		if diskReports[i].Key() != memReports[i].Key() {
			t.Fatalf("report %d differs: %s vs %s",
				i, diskReports[i].String(), memReports[i].String())
		}
	}
}

// TestCrossSeedStability verifies the study's conclusions are properties of
// the generating distributions, not of one lucky seed: Findings 1–5 must
// hold for several independent histories, and the checker recall must stay
// total on several independent corpora.
func TestCrossSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-seed sweep is slow")
	}
	for _, seed := range []int64{2, 3, 4} {
		h := gitlog.Generate(corpus.Spec{Seed: seed, Background: 1500})
		res := mine.Mine(h, apidb.New())
		if len(res.Dataset) != gitlog.TotalBugs {
			t.Errorf("seed %d: dataset = %d", seed, len(res.Dataset))
		}
		for _, f := range study.New(h, res).Findings() {
			if !f.Holds {
				t.Errorf("seed %d: finding %d fails: %s", seed, f.ID, f.Measured)
			}
		}
	}
	for _, seed := range []int64{2, 3} {
		c := corpus.Generate(corpus.Spec{Seed: seed})
		var sources []cpg.Source
		for _, f := range c.Files {
			sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
		}
		u := (&cpg.Builder{Headers: cpp.MapFiles(c.Headers)}).Build(sources)
		reports := core.NewEngine().CheckUnit(u)
		nb := study.EvaluateNewBugs(c, reports, 0)
		if len(nb.Missed) != 0 {
			t.Errorf("seed %d: missed %d planned bugs", seed, len(nb.Missed))
		}
		tot := study.Total(nb.Table4())
		if tot.FP != len(c.Baits) {
			t.Errorf("seed %d: FP = %d, want %d", seed, tot.FP, len(c.Baits))
		}
	}
}

// TestCorpusScaling checks that a much larger corpus (more clean code per
// module) still analyzes with full recall and unchanged precision — the
// checkers must not regress as the signal-to-noise ratio drops.
func TestCorpusScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	c := corpus.Generate(corpus.Spec{Seed: 1, CleanPerModule: 16})
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	u := (&cpg.Builder{Headers: cpp.MapFiles(c.Headers)}).Build(sources)
	reports := core.NewEngine().CheckUnit(u)
	nb := study.EvaluateNewBugs(c, reports, 0)
	if len(nb.Missed) != 0 {
		t.Fatalf("missed %d planned bugs at %0.1f KLOC", len(nb.Missed), c.KLOC())
	}
	planned := map[string]bool{}
	for _, b := range c.Planned {
		planned[b.Function] = true
	}
	baited := map[string]bool{}
	for _, b := range c.Baits {
		baited[b.Function] = true
	}
	for _, r := range reports {
		if !planned[r.Function] && !baited[r.Function] {
			t.Errorf("false positive on clean code: %s", r.String())
		}
	}
}

// TestReproducePipelineSmoke runs a compacted version of cmd/reproduce so a
// regression in any stage is caught by `go test ./...` without invoking the
// binary.
func TestReproducePipelineSmoke(t *testing.T) {
	h := gitlog.Generate(corpus.Spec{Seed: 1, Background: 1000})
	res := mine.Mine(h, apidb.New())
	s := study.New(h, res)
	for _, f := range s.Findings() {
		if !f.Holds {
			t.Errorf("finding %d fails: %s", f.ID, f.Measured)
		}
	}
	c := corpus.Generate(corpus.Spec{Seed: 1})
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	u := (&cpg.Builder{Headers: cpp.MapFiles(c.Headers)}).Build(sources)
	nb := study.EvaluateNewBugs(c, core.NewEngine().CheckUnit(u), 0)
	tot := study.Total(nb.Table4())
	if tot.NewBugs != len(c.Planned) || tot.PR != 3 || tot.FP != len(c.Baits) {
		t.Errorf("table 4 totals off: %+v", tot)
	}
	if !strings.Contains(tot.Subsystem, "Total") {
		t.Errorf("total row = %q", tot.Subsystem)
	}
}
