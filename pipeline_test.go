package repro

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/study"
)

// runPipeline executes the complete detection pipeline — preprocess + parse
// (sharded), CPG assembly, nine checkers, batched refsim confirmation — at
// the given worker count and returns the confirmed report list.
func runPipeline(workers int) []core.Report {
	c, sources := kernelCorpus()
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources,
		Headers: headers,
		Options: core.Options{Workers: workers, Confirm: true},
	})
	if err != nil {
		panic("pipeline_test: " + err.Error())
	}
	return run.Reports
}

// TestFullPipelineParallelMatchesSequential runs the whole pipeline
// (parse → check → confirm) on the generated corpus with one worker and with
// eight; the report lists — including witnesses, positions, messages, and
// confirmation verdicts — must be byte-identical. This is the determinism
// guarantee the Workers knob advertises.
func TestFullPipelineParallelMatchesSequential(t *testing.T) {
	seq := runPipeline(1)
	par := runPipeline(8)
	if len(seq) == 0 {
		t.Fatal("sequential pipeline produced no reports; corpus broken?")
	}
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("report %d differs:\n  seq: %+v\n  par: %+v", i, seq[i], par[i])
		}
		// Belt and braces: the rendered diagnostics must also agree.
		if s, p := seq[i].String(), par[i].String(); s != p {
			t.Errorf("report %d renders differently:\n  seq: %s\n  par: %s", i, s, p)
		}
	}
}

// TestFullPipelineWorkerSweep confirms the study downstream of the checkers
// (Table 4 aggregation over batched confirmation) is identical at every
// worker count, not just 1 vs 8.
func TestFullPipelineWorkerSweep(t *testing.T) {
	c, _ := kernelCorpus()
	var wantRows []study.Table4Row
	for _, workers := range []int{1, 2, 3, 8} {
		unit := buildUnitWorkers(workers)
		engine := core.NewEngine()
		engine.Workers = workers
		reports := engine.CheckUnit(unit)
		nb := study.EvaluateNewBugs(c, reports, workers)
		rows := nb.Table4()
		if wantRows == nil {
			wantRows = rows
			continue
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("workers=%d: Table 4 differs from workers=1:\n  got  %+v\n  want %+v",
				workers, rows, wantRows)
		}
	}
}

// TestObservabilityAllocOverhead pins what observability costs: an
// uncached analysis of the demo corpus with a live trace (obs.New, every
// span and counter recorded) may allocate at most 5% more than the same run
// untraced (obs.Nop, where every span and counter call is a nil-receiver
// no-op). Allocation counts are the stable signal; wall time on a shared
// machine is not.
func TestObservabilityAllocOverhead(t *testing.T) {
	c, sources := kernelCorpus()
	headers := maps.Clone(c.Headers)
	allocs := func(trace func() *obs.Trace) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := core.Analyze(context.Background(), core.Request{
				Sources: sources,
				Headers: headers,
				Options: core.Options{Workers: 1, Confirm: true},
				Trace:   trace(),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	off := allocs(obs.Nop)
	on := allocs(func() *obs.Trace { return obs.New("obs-overhead") })
	t.Logf("allocs per run: off %.0f, on %.0f (ratio %.3f)", off, on, on/off)
	if on > 1.05*off {
		t.Errorf("observability on allocates %.0f per run, more than 1.05 x off (%.0f); ratio %.3f", on, off, on/off)
	}
}
