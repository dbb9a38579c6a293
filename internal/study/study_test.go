package study

import (
	"testing"

	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/gitlog"
	"repro/internal/mine"
)

func buildStudy(t *testing.T) *Study {
	t.Helper()
	h := gitlog.Generate(corpus.Spec{Seed: 1, Background: 2000})
	res := mine.Mine(h, apidb.New())
	return New(h, res)
}

func TestGrowthTrend(t *testing.T) {
	s := buildStudy(t)
	trend := s.GrowthTrend()
	if len(trend) != 18 { // 2005..2022
		t.Fatalf("years = %d", len(trend))
	}
	if trend[0].Year != 2005 || trend[len(trend)-1].Year != 2022 {
		t.Errorf("range = %d..%d", trend[0].Year, trend[len(trend)-1].Year)
	}
	if trend[len(trend)-1].Cumulative != gitlog.TotalBugs {
		t.Errorf("cumulative = %d", trend[len(trend)-1].Cumulative)
	}
	// Growth: the last third must dwarf the first third (Figure 1 shape).
	early, late := 0, 0
	for _, yc := range trend {
		if yc.Year <= 2010 {
			early += yc.Count
		}
		if yc.Year >= 2017 {
			late += yc.Count
		}
	}
	if late < early*3 {
		t.Errorf("growth shape off: early=%d late=%d", early, late)
	}
}

func TestTable2Shares(t *testing.T) {
	s := buildStudy(t)
	t2 := s.Classification()
	if t2.Total != gitlog.TotalBugs {
		t.Fatalf("total = %d", t2.Total)
	}
	leakPct := 100 * float64(t2.LeakCount) / float64(t2.Total)
	if leakPct < 69 || leakPct > 74 {
		t.Errorf("leak share = %.1f%%, want ~71.7%%", leakPct)
	}
	intraPct := 100 * float64(t2.IntraDec) / float64(t2.Total)
	if intraPct < 55 || intraPct > 60 {
		t.Errorf("intra share = %.1f%%, want ~57.1%%", intraPct)
	}
	uadPct := 100 * float64(t2.UADCount) / float64(t2.Total)
	if uadPct < 8 || uadPct > 10.5 {
		t.Errorf("uad share = %.1f%%, want ~9.1%%", uadPct)
	}
}

func TestDistributionShape(t *testing.T) {
	s := buildStudy(t)
	dist := s.Distribution()
	if dist[0].Subsystem != "drivers" {
		t.Errorf("top subsystem = %s", dist[0].Subsystem)
	}
	var maxDensity SubsystemStat
	for _, d := range dist {
		if d.Density > maxDensity.Density {
			maxDensity = d
		}
	}
	if maxDensity.Subsystem != "block" {
		t.Errorf("highest density = %s (%.3f), want block", maxDensity.Subsystem, maxDensity.Density)
	}
}

func TestLifetimes(t *testing.T) {
	s := buildStudy(t)
	lt := s.Lifetimes()
	if lt.Tagged != gitlog.FixesTagged {
		t.Errorf("tagged = %d", lt.Tagged)
	}
	if lt.FullSpan != gitlog.FullSpanBugs {
		t.Errorf("full-span = %d, want %d", lt.FullSpan, gitlog.FullSpanBugs)
	}
	if lt.OverDecade < gitlog.DecadeBugs {
		t.Errorf("decade = %d", lt.OverDecade)
	}
	if lt.MajorSpans["v4.x->v5.x"] == 0 {
		t.Error("no v4->v5 spans recorded")
	}
}

func TestAllFindingsHold(t *testing.T) {
	s := buildStudy(t)
	for _, f := range s.Findings() {
		if !f.Holds {
			t.Errorf("Finding %d does not hold: %s (measured %s)", f.ID, f.Statement, f.Measured)
		}
	}
}

// --- new-bug evaluation (Tables 4 and 5) ---

type headerProvider map[string]string

func (m headerProvider) ReadFile(path string) (string, bool) {
	if s, ok := m[path]; ok {
		return s, true
	}
	for p, s := range m {
		if len(p) > len(path) && p[len(p)-len(path)-1] == '/' && p[len(p)-len(path):] == path {
			return s, true
		}
	}
	return "", false
}

func evalNewBugs(t *testing.T) (*corpus.Corpus, *NewBugStudy) {
	t.Helper()
	c := corpus.Generate(corpus.Spec{Seed: 1})
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	u := (&cpg.Builder{Headers: headerProvider(c.Headers)}).Build(sources)
	reports := core.NewEngine().CheckUnit(u)
	return c, EvaluateNewBugs(c, reports, 0)
}

func TestTable4Shape(t *testing.T) {
	c, st := evalNewBugs(t)
	if len(st.Missed) != 0 {
		t.Fatalf("missed %d planned bugs", len(st.Missed))
	}
	rows := st.Table4()
	total := Total(rows)
	if total.NewBugs != len(c.Planned) {
		t.Errorf("new bugs = %d, want %d", total.NewBugs, len(c.Planned))
	}
	if total.FP != len(c.Baits) {
		t.Errorf("FP = %d, want %d", total.FP, len(c.Baits))
	}
	if total.NPD != 7 {
		t.Errorf("NPD = %d, want 7", total.NPD)
	}
	if total.PR != 3 {
		t.Errorf("PR = %d, want 3 (pinned UAD rejects)", total.PR)
	}
	// Confirmation shape: roughly two thirds confirmed (paper 240/351).
	confirmShare := float64(total.CFM) / float64(total.NewBugs)
	if confirmShare < 0.55 || confirmShare > 0.8 {
		t.Errorf("CFM share = %.2f, want ~0.68", confirmShare)
	}
	// Subsystem ordering: arch and drivers dominate (96% in the paper).
	bySub := map[string]Table4Row{}
	for _, r := range rows {
		bySub[r.Subsystem] = r
	}
	if got := bySub["arch"].NewBugs + bySub["drivers"].NewBugs; got < total.NewBugs*9/10 {
		t.Errorf("arch+drivers = %d of %d", got, total.NewBugs)
	}
}

func TestTable5Shape(t *testing.T) {
	_, st := evalNewBugs(t)
	rows := st.Table5()
	byMod := map[string]Table5Row{}
	for _, r := range rows {
		byMod[r.Subsystem+"/"+r.Module] = r
	}
	arm := byMod["arch/arm"]
	if arm.Bugs != 50 {
		t.Errorf("arch/arm bugs = %d, want 50", arm.Bugs)
	}
	if arm.Patterns[core.P4] != 42 {
		t.Errorf("arch/arm P4 = %d, want 42", arm.Patterns[core.P4])
	}
	clk := byMod["drivers/clk"]
	if clk.Bugs != 37 {
		t.Errorf("drivers/clk bugs = %d, want 37", clk.Bugs)
	}
	if len(clk.TopAPIs) == 0 {
		t.Fatal("clk top APIs empty")
	}
	mfd := byMod["drivers/mfd"]
	if mfd.Patterns[core.P1] != 1 {
		t.Errorf("drivers/mfd P1 = %d, want 1", mfd.Patterns[core.P1])
	}
}

func TestStatusesDeterministic(t *testing.T) {
	_, a := evalNewBugs(t)
	_, b := evalNewBugs(t)
	if len(a.Bugs) != len(b.Bugs) {
		t.Fatal("evaluation not deterministic")
	}
	for i := range a.Bugs {
		if a.Bugs[i].Status != b.Bugs[i].Status {
			t.Fatalf("status differs at %d", i)
		}
	}
}

func TestClassifierAccuracyPerfectOnSynthetic(t *testing.T) {
	s := buildStudy(t)
	acc := s.ClassifierAccuracy()
	if acc.Total != gitlog.TotalBugs || acc.Correct != acc.Total {
		t.Fatalf("accuracy = %d/%d (misses by category: %v)", acc.Correct, acc.Total, acc.PerCategory)
	}
	if acc.UADCorrect != acc.UADTotal || acc.UADTotal == 0 {
		t.Fatalf("UAD accuracy = %d/%d", acc.UADCorrect, acc.UADTotal)
	}
}

func TestLessonSummaryMatchesPlanTotals(t *testing.T) {
	c, st := evalNewBugs(t)
	l := st.LessonSummary()
	perPattern := map[corpus.PatternID]int{}
	missingGet := 0
	for _, b := range c.Planned {
		perPattern[b.Pattern]++
		if b.Kind == corpus.KindMissingGet {
			missingGet++
		}
	}
	if l.Deviation != perPattern["P1"]+perPattern["P2"] {
		t.Errorf("deviation = %d", l.Deviation)
	}
	if l.ReturnNull != perPattern["P2"] {
		t.Errorf("return-null = %d, want %d (paper found 7)", l.ReturnNull, perPattern["P2"])
	}
	if l.SmartLoop != perPattern["P3"] || l.HiddenAPI != perPattern["P4"] {
		t.Errorf("hidden: loop %d api %d", l.SmartLoop, l.HiddenAPI)
	}
	if l.MissingInc != missingGet {
		t.Errorf("missing-inc = %d, want %d (paper found 16)", l.MissingInc, missingGet)
	}
	if l.UAD != perPattern["P8"] || l.Escape != perPattern["P9"] {
		t.Errorf("future risks: uad %d escape %d", l.UAD, l.Escape)
	}
}

func TestLifetimeLines(t *testing.T) {
	s := buildStudy(t)
	lines := s.LifetimeLines()
	if len(lines) != gitlog.FixesTagged {
		t.Fatalf("lines = %d, want %d", len(lines), gitlog.FixesTagged)
	}
	for i, l := range lines {
		if l.FixIndex < l.IntroIndex-20 { // same-year stable interleave tolerance
			t.Fatalf("line %d fixes before intro: %+v", i, l)
		}
		if i > 0 && lines[i].IntroIndex < lines[i-1].IntroIndex {
			t.Fatal("lines not sorted by introduction")
		}
	}
}
