// Package repro holds the benchmark harness: one benchmark per table and
// figure in the paper's evaluation, plus the ablations called out in
// DESIGN.md. Each benchmark runs the full pipeline for its experiment and
// reports the headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every row the paper reports
// (EXPERIMENTS.md records the paper-vs-measured comparison). Speed is
// measured by refbench (bench/, BENCHMARK.json); the few speed benchmarks
// kept here measure what no refbench row does.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/gitlog"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/study"
	"repro/internal/word2vec"
)

// benchAnalyze runs the pipeline with a trace attached (so cache benchmarks
// can read hit metrics), failing the benchmark on error.
func benchAnalyze(b *testing.B, sources []cpg.Source, headers map[string]string, opt core.Options) *core.Run {
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources, Headers: headers, Options: opt, Trace: obs.New("bench"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// Shared fixtures: the benchmarked pipelines are deterministic, so heavyweight
// inputs are built once and reused across iterations; per-iteration work is
// the experiment computation itself.
var (
	histOnce sync.Once
	hist     *gitlog.History

	corpOnce    sync.Once
	corp        *corpus.Corpus
	corpSources []cpg.Source
)

func history() *gitlog.History {
	histOnce.Do(func() {
		hist = gitlog.Generate(corpus.Spec{Seed: 1, Background: 6000})
	})
	return hist
}

func kernelCorpus() (*corpus.Corpus, []cpg.Source) {
	corpOnce.Do(func() {
		corp = corpus.Generate(corpus.Spec{Seed: 1})
		for _, f := range corp.Files {
			corpSources = append(corpSources, cpg.Source{Path: f.Path, Content: f.Content})
		}
	})
	return corp, corpSources
}

func buildUnit() *cpg.Unit {
	return buildUnitWorkers(0)
}

func buildUnitWorkers(workers int) *cpg.Unit {
	c, sources := kernelCorpus()
	return (&cpg.Builder{Headers: cpp.NewIndexedFiles(c.Headers), Workers: workers}).Build(sources)
}

// BenchmarkFigure1GrowthTrend mines the history and computes the per-year
// growth trend (Figure 1). Paper shape: single digits in 2005 rising to
// >100/year in the 5.x era, 1,033 total.
func BenchmarkFigure1GrowthTrend(b *testing.B) {
	h := history()
	var last []study.YearCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		last = study.New(h, res).GrowthTrend()
	}
	b.ReportMetric(float64(last[len(last)-1].Cumulative), "total_bugs")
	b.ReportMetric(float64(last[0].Count), "bugs_2005")
	b.ReportMetric(float64(last[len(last)-2].Count), "bugs_2021")
}

// BenchmarkTable2Classification computes the Table 2 taxonomy shares. Paper:
// leak 71.7%, missing-dec 67.2%, intra 57.1%, UAD 9.1%.
func BenchmarkTable2Classification(b *testing.B) {
	h := history()
	var t2 study.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		t2 = study.New(h, res).Classification()
	}
	b.ReportMetric(100*float64(t2.LeakCount)/float64(t2.Total), "leak_pct")
	b.ReportMetric(100*float64(t2.IntraDec)/float64(t2.Total), "intra_pct")
	b.ReportMetric(100*float64(t2.UADCount)/float64(t2.Total), "uad_pct")
}

// BenchmarkFigure2Distribution computes the subsystem distribution and bug
// density. Paper: drivers 588 bugs; block densest (18 bugs / 65 KLOC).
func BenchmarkFigure2Distribution(b *testing.B) {
	h := history()
	var dist []study.SubsystemStat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		dist = study.New(h, res).Distribution()
	}
	var drivers, blockDensity float64
	for _, d := range dist {
		if d.Subsystem == "drivers" {
			drivers = float64(d.Bugs)
		}
		if d.Subsystem == "block" {
			blockDensity = d.Density
		}
	}
	b.ReportMetric(drivers, "drivers_bugs")
	b.ReportMetric(blockDensity*1000, "block_bugs_per_MLOC")
}

// BenchmarkFigure3Lifetimes computes the lifetime statistics. Paper: 567
// tagged, 75.7% >1yr, 19 >10yr, 23 full-span.
func BenchmarkFigure3Lifetimes(b *testing.B) {
	h := history()
	var lt study.LifetimeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		lt = study.New(h, res).Lifetimes()
	}
	b.ReportMetric(float64(lt.Tagged), "tagged")
	b.ReportMetric(100*float64(lt.OverOneYear)/float64(lt.Tagged), "over_1y_pct")
	b.ReportMetric(float64(lt.OverDecade), "over_10y")
	b.ReportMetric(float64(lt.FullSpan), "full_span")
}

// BenchmarkTable3Word2Vec trains the CBOW model on the commit corpus and
// measures the keyword similarities. Paper: find~get 0.73 is the peak;
// unhold bottoms out.
func BenchmarkTable3Word2Vec(b *testing.B) {
	h := history()
	var t3 study.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 = study.ComputeTable3(h, word2vec.Config{Dim: 32, Epochs: 2, Seed: 5})
	}
	b.ReportMetric(t3.At("get", "find"), "sim_find_get")
	b.ReportMetric(t3.At("put", "find"), "sim_find_put")
	b.ReportMetric(t3.At("get", "foreach"), "sim_foreach_get")
	b.ReportMetric(t3.At("unhold", "find"), "sim_find_unhold")
}

// BenchmarkTable4NewBugs runs the full §6 pipeline — corpus → CPG → nine
// checkers → dynamic confirmation — and reports the Table 4 totals. Paper:
// 351 new bugs (296/48/7 leak/UAF/NPD), 240 confirmed, 3 rejected, 5 FP.
func BenchmarkTable4NewBugs(b *testing.B) {
	c, _ := kernelCorpus()
	var tot study.Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := buildUnit()
		reports := core.NewEngine().CheckUnit(unit)
		nb := study.EvaluateNewBugs(c, reports, 0)
		tot = study.Total(nb.Table4())
	}
	b.ReportMetric(float64(tot.NewBugs), "new_bugs")
	b.ReportMetric(float64(tot.Leak), "leak")
	b.ReportMetric(float64(tot.UAF), "uaf")
	b.ReportMetric(float64(tot.NPD), "npd")
	b.ReportMetric(float64(tot.CFM), "confirmed")
	b.ReportMetric(float64(tot.PR), "rejected")
	b.ReportMetric(float64(tot.FP), "false_positives")
}

// BenchmarkTable5ModuleDetail reproduces the per-module detail. Paper spot
// checks: arch/arm 50 bugs with P4[42]; drivers/clk 37; drivers/mfd P1[1].
func BenchmarkTable5ModuleDetail(b *testing.B) {
	c, _ := kernelCorpus()
	var rows []study.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := buildUnit()
		reports := core.NewEngine().CheckUnit(unit)
		rows = study.EvaluateNewBugs(c, reports, 0).Table5()
	}
	var arm, clk float64
	for _, r := range rows {
		if r.Subsystem == "arch" && r.Module == "arm" {
			arm = float64(r.Bugs)
		}
		if r.Subsystem == "drivers" && r.Module == "clk" {
			clk = float64(r.Bugs)
		}
	}
	b.ReportMetric(float64(len(rows)), "modules")
	b.ReportMetric(arm, "arch_arm_bugs")
	b.ReportMetric(clk, "drivers_clk_bugs")
}

// BenchmarkTable6ErrorProneAPIs verifies the Appendix A inventory against
// the knowledge base and measures how many inventory APIs actually caused
// detections in the corpus run.
func BenchmarkTable6ErrorProneAPIs(b *testing.B) {
	c, _ := kernelCorpus()
	var inventory, caused float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := apidb.New()
		listed := map[string]bool{}
		n := 0
		for _, row := range apidb.Table6() {
			for _, api := range row.APIs {
				n++
				listed[api] = true
				if db.Lookup(api) == nil && db.Loop(api) == nil {
					b.Fatalf("inventory API %s missing from knowledge base", api)
				}
			}
		}
		inventory = float64(n)
		hit := map[string]bool{}
		for _, pb := range c.Planned {
			if listed[pb.API] {
				hit[pb.API] = true
			}
		}
		caused = float64(len(hit))
	}
	b.ReportMetric(inventory, "inventory_apis")
	b.ReportMetric(caused, "apis_causing_bugs")
}

// BenchmarkAblationMiningStages compares keyword-only mining with the full
// two-level pipeline (paper: 1,825 candidates shrink to 1,033 confirmed
// bugs — keyword matching alone over-reports by ~77%).
func BenchmarkAblationMiningStages(b *testing.B) {
	h := history()
	var res *mine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = mine.Mine(h, apidb.New())
	}
	b.ReportMetric(float64(len(res.Candidates)), "stage1_keyword_only")
	b.ReportMetric(float64(len(res.Confirmed)), "stage2_impl_check")
	b.ReportMetric(float64(len(res.Dataset)), "final_dataset")
	b.ReportMetric(float64(len(res.RemovedWrongPatches)), "wrong_patches_removed")
}

// BenchmarkAblationSmartLoopRegistry removes the smartloop knowledge
// (registry + discovery results) after graph construction and measures the
// damage: P3 recall collapses and the loop-injected references start
// polluting the other checkers (this is why §6.1 builds a dedicated lexer
// parser for M_SL).
func BenchmarkAblationSmartLoopRegistry(b *testing.B) {
	c, _ := kernelCorpus()
	plannedP3 := 0
	for _, pb := range c.Planned {
		if pb.Pattern == "P3" {
			plannedP3++
		}
	}
	var withP3, withoutP3, extraWithout float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := buildUnit()
		full := core.NewEngine().CheckUnit(unit)
		n := 0
		for _, r := range full {
			if r.Pattern == core.P3 {
				n++
			}
		}
		withP3 = float64(n)

		for _, l := range unit.DB.Loops() {
			unit.DB.DeleteLoop(l.Name)
		}
		ablated := core.NewEngine().CheckUnit(unit)
		n = 0
		for _, r := range ablated {
			if r.Pattern == core.P3 {
				n++
			}
		}
		withoutP3 = float64(n)
		extraWithout = float64(len(ablated) - len(full))
	}
	b.ReportMetric(float64(plannedP3), "planned_p3")
	b.ReportMetric(withP3, "p3_with_registry")
	b.ReportMetric(withoutP3, "p3_without_registry")
	b.ReportMetric(extraWithout, "report_delta_without")
}

// BenchmarkAblationConfirmation measures what dynamic confirmation adds:
// with refsim, the pinned-UAD reports are separated from real UAFs; without
// it every report would count as confirmed.
func BenchmarkAblationConfirmation(b *testing.B) {
	c, _ := kernelCorpus()
	var confirmed, rejected, naive float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := buildUnit()
		reports := core.NewEngine().CheckUnit(unit)
		nb := study.EvaluateNewBugs(c, reports, 0)
		tot := study.Total(nb.Table4())
		confirmed = float64(tot.CFM)
		rejected = float64(tot.PR)
		naive = float64(tot.NewBugs)
	}
	b.ReportMetric(naive, "naive_all_confirmed")
	b.ReportMetric(confirmed, "refsim_confirmed")
	b.ReportMetric(rejected, "refsim_rejected")
}

// BenchmarkPipelineParallel sweeps the Workers knob over the full pipeline —
// sharded preprocess+parse, CPG assembly, nine checkers, batched refsim
// confirmation. refbench runs every workload at one worker count, so this
// sweep is the only measure of in-process parallel speedup. Output is
// byte-identical at every worker count; only wall time may differ.
func BenchmarkPipelineParallel(b *testing.B) {
	c, sources := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			var reports []core.Report
			for i := 0; i < b.N; i++ {
				run := benchAnalyze(b, sources, headers, core.Options{
					Workers: workers,
					Confirm: true,
				})
				reports = run.Reports
			}
			b.ReportMetric(float64(len(reports)), "reports")
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkPipelineCache/warm measures the tiered analysis cache's disk
// tier: it reopens a populated directory with a fresh handle every
// iteration, so each run re-reads the pack index and re-decodes the entry
// into an empty L1. refbench has no row that reads the disk tier from a
// fresh handle (its edit-loop and served-mix workloads keep one handle
// alive), so this one stays.
func BenchmarkPipelineCache(b *testing.B) {
	c, sources := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		populate, err := analysiscache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		benchAnalyze(b, sources, headers, core.Options{Cache: populate, Confirm: true})
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := analysiscache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run := benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true})
			if run.Metric("cache.unit.hit") > 0 {
				hits++
			}
			reports = run.Reports
		}
		b.ReportMetric(float64(hits)/float64(b.N), "unit_hit_rate")
		b.ReportMetric(float64(len(reports)), "reports")
	})
}

// BenchmarkCheckerScaling sweeps the corpus size (clean functions per
// module) and reports throughput, showing how analysis cost scales with the
// amount of non-buggy code around the same bug population.
func BenchmarkCheckerScaling(b *testing.B) {
	for _, clean := range []int{2, 8, 16} {
		c := corpus.Generate(corpus.Spec{Seed: 1, CleanPerModule: clean})
		var sources []cpg.Source
		bytes := 0
		for _, f := range c.Files {
			sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
			bytes += len(f.Content)
		}
		b.Run(fmt.Sprintf("clean=%d", clean), func(b *testing.B) {
			b.SetBytes(int64(bytes))
			var n int
			for i := 0; i < b.N; i++ {
				unit := (&cpg.Builder{Headers: cpp.NewIndexedFiles(c.Headers)}).Build(sources)
				n = len(core.NewEngine().CheckUnit(unit))
			}
			b.ReportMetric(c.KLOC(), "kloc")
			b.ReportMetric(float64(n), "reports")
		})
	}
}

// BenchmarkWord2VecScaling sweeps the training-corpus size, showing how the
// Table 3 signal strengthens (and costs grow) with more commit text.
func BenchmarkWord2VecScaling(b *testing.B) {
	for _, bg := range []int{1000, 4000} {
		h := gitlog.Generate(corpus.Spec{Seed: 1, Background: bg})
		b.Run(fmt.Sprintf("background=%d", bg), func(b *testing.B) {
			var t3 study.Table3
			for i := 0; i < b.N; i++ {
				t3 = study.ComputeTable3(h, word2vec.Config{Dim: 32, Epochs: 2, Seed: 5})
			}
			b.ReportMetric(t3.At("get", "find"), "sim_find_get")
			b.ReportMetric(float64(t3.Model.VocabSize()), "vocab")
		})
	}
}
