// Command reproduce runs every experiment in the paper end to end and prints
// a paper-vs-measured report for each table and figure. Its output is the
// source of EXPERIMENTS.md.
//
// Usage:
//
//	reproduce [-fast]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/apidb"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/gitlog"
	"repro/internal/mine"
	"repro/internal/study"
	"repro/internal/word2vec"
)

func main() {
	var opts cliopts.Opts
	opts.Register(flag.CommandLine, cliopts.Workers|cliopts.Checkers|cliopts.Cache|cliopts.Stats)
	fast := flag.Bool("fast", false, "smaller background history (quicker word2vec)")
	flag.Parse()

	selected, err := opts.Selected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(2)
	}

	background := 0
	if *fast {
		background = 4000
	}

	fmt.Println("# Reproduction run: One Simple API Can Cause Hundreds of Bugs (SOSP'23)")
	fmt.Println()

	// ---------- historical study ----------
	h := gitlog.Generate(corpus.Spec{Seed: 1, Background: background})
	res := mine.Mine(h, apidb.New())
	s := study.New(h, res)

	fmt.Println("## Dataset construction (§3.1)")
	fmt.Printf("paper:    >1M commits, 753 releases -> 1,825 candidates -> 1,033 bugs\n")
	fmt.Printf("measured: %d commits, %d releases -> %d candidates -> %d bugs (%d wrong patches removed by the Fixes-tag filter)\n\n",
		len(h.Commits), len(h.Versions), len(res.Candidates), len(res.Dataset),
		len(res.RemovedWrongPatches))

	acc := s.ClassifierAccuracy()
	fmt.Printf("classifier agreement with ground truth: %d/%d categories, %d/%d UAD flags\n\n",
		acc.Correct, acc.Total, acc.UADCorrect, acc.UADTotal)

	fmt.Println("## Findings 1-5 (§4)")
	for _, f := range s.Findings() {
		status := "HOLDS"
		if !f.Holds {
			status = "FAILS"
		}
		fmt.Printf("Finding %d [%s]  paper: %s\n              measured: %s\n", f.ID, status, f.Statement, f.Measured)
	}
	fmt.Println()

	fmt.Println("## Figure 1: growth trend (paper: monotone growth 2005->2022, ~6/yr to ~140/yr)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, yc := range s.GrowthTrend() {
		fmt.Fprintf(w, "%d\t%d\t%d cumulative\n", yc.Year, yc.Count, yc.Cumulative)
	}
	w.Flush()
	fmt.Println()

	fmt.Println("## Table 2: classification (paper percentages in parentheses)")
	t2 := s.Classification()
	paperPct := map[string]string{
		"1.1 Missing-Decreasing (Intra-Unpaired)": "57.1",
		"1.2 Missing-Decreasing (Inter-Unpaired)": "10.1",
		"2.  Others (Leak)":                       "4.5",
		"3.1 Misplacing-Refcounting (Decreasing)": "11.5",
		"3.2 Misplacing-Refcounting (Increasing)": "2.4",
		"4.1 Missing-Increasing (Intra-Unpaired)": "5.1",
		"4.2 Missing-Increasing (Inter-Unpaired)": "2.1",
		"5.  Others (UAF)":                        "7.2",
	}
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, row := range t2.Rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t(paper %s%%)\n",
			row.Impact, row.Label, row.Count, row.Percent, paperPct[row.Label])
	}
	fmt.Fprintf(w, "\tUAD subset\t%d\t%.1f%%\t(paper 9.1%%)\n",
		t2.UADCount, 100*float64(t2.UADCount)/float64(t2.Total))
	w.Flush()
	fmt.Println()

	fmt.Println("## Figure 2: distribution + density (paper: drivers 588; drivers+net+fs 82.4%; block densest at 18/65KLOC)")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, d := range s.Distribution() {
		fmt.Fprintf(w, "%s\t%d bugs\t%.0f KLOC\t%.3f bugs/KLOC\n", d.Subsystem, d.Bugs, d.KLOC, d.Density)
	}
	w.Flush()
	fmt.Println()

	lt := s.Lifetimes()
	fmt.Println("## Figure 3: lifetimes")
	fmt.Printf("paper:    567 tagged; 75.7%% >1yr; 19 >10yr (7 UAF); 23 full-span v2.6->v5/6; ~135 v4.x->v5.x\n")
	fmt.Printf("measured: %d tagged; %.1f%% >1yr; %d >10yr (%d UAF); %d full-span; %d v4.x->v5.x; %d within v5.x\n\n",
		lt.Tagged, 100*float64(lt.OverOneYear)/float64(lt.Tagged),
		lt.OverDecade, lt.DecadeUAF, lt.FullSpan,
		lt.MajorSpans["v4.x->v5.x"], lt.SameMajorV5)

	fmt.Println("## Table 3: word2vec keyword similarities (paper: find~get 0.73 peak; unhold lowest; all bug-caused keywords far from 'refcount')")
	t3 := study.ComputeTable3(h, word2vec.Config{Dim: 32, Epochs: 2, Seed: 5})
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "keyword")
	for _, c := range t3.Cols {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for r, rk := range t3.Rows {
		fmt.Fprintf(w, "%s", rk)
		for c := range t3.Cols {
			fmt.Fprintf(w, "\t%.2f", t3.Sim[r][c])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println()

	// ---------- new-bug detection ----------
	c := corpus.Generate(corpus.Spec{Seed: 1})
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	opt := core.Options{Workers: opts.Workers, Checkers: selected}
	cache, err := opts.OpenCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	opt.Cache = cache
	tr := opts.Trace("reproduce")
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources, Headers: c.Headers, Options: opt, Trace: tr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
	opts.Export("reproduce", tr)
	reports := run.Reports
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: cache flush: %v\n", err)
		}
	}
	nb := study.EvaluateNewBugs(c, reports, opts.Workers)

	fmt.Println("## Table 4: new bugs (paper: arch 156, drivers 182, include 2, net 2, sound 9; 296 leak / 48 UAF / 7 NPD; 240 CFM, 3 PR, 5 FP)")
	rows := nb.Table4()
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "subsystem\tnew bugs\tleak\tuaf\tnpd\tcfm\tpr\tnr\tfp")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Subsystem, r.NewBugs, r.Leak, r.UAF, r.NPD, r.CFM, r.PR, r.NR, r.FP)
	}
	tot := study.Total(rows)
	fmt.Fprintf(w, "Total\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		tot.NewBugs, tot.Leak, tot.UAF, tot.NPD, tot.CFM, tot.PR, tot.NR, tot.FP)
	w.Flush()
	fmt.Printf("missed planned bugs: %d; corpus: %.1f KLOC, %d files\n\n",
		len(nb.Missed), c.KLOC(), len(c.Files))

	fmt.Println("## Table 5: per-module detail (top-2 bug-caused APIs, anti-pattern instances)")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "subsystem\tmodule\ttop APIs\tpatterns\tbugs\tcfm")
	for _, r := range nb.Table5() {
		var apis []string
		for _, ac := range r.TopAPIs {
			apis = append(apis, fmt.Sprintf("%s[%d]", ac.API, ac.Count))
		}
		var pats []string
		for p := range r.Patterns {
			pats = append(pats, fmt.Sprintf("%s[%d]", p, r.Patterns[p]))
		}
		sort.Strings(pats)
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\n",
			r.Subsystem, r.Module, join(apis), join(pats), r.Bugs, r.Confirmed)
	}
	w.Flush()
	fmt.Println()

	l := nb.LessonSummary()
	fmt.Println("## §7 Lessons From New Bugs (root-cause families)")
	fmt.Printf("implementation deviation: %d (return-NULL %d; paper: 1 new pm_runtime bug, 7 return-NULL)\n", l.Deviation, l.ReturnNull)
	fmt.Printf("hidden refcounting: smartloop breaks %d + hidden inc/dec %d (missing-increase subset %d; paper: 39 + 23, 16 missing-inc)\n",
		l.SmartLoop, l.HiddenAPI, l.MissingInc)
	fmt.Printf("overlooked locations: error-path %d, inter-paired %d, direct-free %d (paper: 9, 13, 3)\n",
		l.ErrorPath, l.InterPair, l.DirectFree)
	fmt.Printf("future risks: UAD %d, escapes %d (paper: 5, 17)\n\n", l.UAD, l.Escape)

	fmt.Println("## Table 6: error-prone APIs (Appendix A)")
	for _, row := range apidb.Table6() {
		fmt.Printf("%-2s %-18s %d APIs\n", row.Category, row.BugType, len(row.APIs))
	}
	db := apidb.New()
	fmt.Printf("knowledge base: %d APIs, %d smartloops, %d callback pairs\n",
		len(db.APIs()), len(db.Loops()), len(db.Callbacks()))
}

func join(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}
