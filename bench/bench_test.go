package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/render"
)

// TestOracleRejectsDroppedReport checks the per-operation oracle both ways:
// the real report list passes, and dropping any report whose (function,
// pattern) key no other report shares fails.
func TestOracleRejectsDroppedReport(t *testing.T) {
	const seed = 2
	c := corpus.Generate(corpus.Spec{Seed: seed})
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	run, err := core.Analyze(context.Background(), core.Request{Sources: sources, Headers: c.Headers})
	if err != nil {
		t.Fatal(err)
	}
	jsonOf := func(reports []core.Report) []byte {
		var buf bytes.Buffer
		if err := render.WriteJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := newOracle(c, seed).check(jsonOf(run.Reports)); err != nil {
		t.Fatalf("oracle rejects the real reports: %v", err)
	}

	type key struct{ fn, pattern string }
	count := map[key]int{}
	for _, r := range run.Reports {
		count[key{r.Function, string(r.Pattern)}]++
	}
	dropped := 0
	for i, r := range run.Reports {
		if count[key{r.Function, string(r.Pattern)}] != 1 {
			continue
		}
		rest := append(append([]core.Report(nil), run.Reports[:i]...), run.Reports[i+1:]...)
		if dropped == 0 {
			if newOracle(c, seed).check(jsonOf(rest)) == nil {
				t.Errorf("oracle accepts the reports without %s", r.String())
			}
		} else if scoreReports(c, seed, rest) == nil {
			t.Errorf("oracle accepts the reports without %s", r.String())
		}
		dropped++
	}
	if dropped == 0 {
		t.Fatal("no report has a key of its own")
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks the result against BENCHMARK.json: every declared metric emitted
// with its unit and nothing else, no failed operation, and the traced
// ledger's layers accounting for core.Analyze's wall time within 10%.
func TestWorkloadsSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	scale := treeScale
	if testing.Short() {
		scale = 1
	}
	ctx := context.Background()
	tmp := t.TempDir()
	bin, err := buildBinaries(ctx, "..", filepath.Join(tmp, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				o := options{seed: 1, seconds: 60, trace: trace, scale: scale, ops: 3}
				want := spec.EndToEnd
				switch {
				case trace == 1:
					// trace.coverage is a median over operations whose
					// single ratios scatter by ±0.15 on a noisy host; 30
					// hold the median well inside the band.
					o.ops, want = 30, spec.PerLayer
				case w.served:
					o.ops = 20
				}
				res, err := runOne(ctx, o, w, bin, tmp)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				if cov := res.Metrics["trace.coverage"].Value; trace == 1 && (cov < 0.9 || cov > 1.1) {
					t.Errorf("trace.coverage = %.3f, want within [0.9, 1.1]", cov)
				}
			})
		}
	}
}

// TestCalibrationStopsService checks that a busy process under test gets no
// CPU while calibration rounds run, so its background work cannot slow the
// rounds and shrink the factor that scales reported times, and that it runs
// again afterwards.
func TestCalibrationStopsService(t *testing.T) {
	busy := exec.Command("sh", "-c", "while :; do :; done")
	if err := busy.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = busy.Process.Kill()
		_ = busy.Wait() // killed: the error is expected
	}()
	pid := busy.Process.Pid
	siblingCPU := func(c *calibrator) time.Duration {
		cpu0, err := procCPU(pid)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := c.round(); err != nil {
				t.Fatal(err)
			}
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			t.Fatal(err)
		}
		return cpu1 - cpu0
	}
	running := siblingCPU(&calibrator{base: time.Now()})
	stopped := siblingCPU(&calibrator{base: time.Now(), frozen: pid})
	t.Logf("sibling CPU during 20 rounds: %v running, %v stopped", running, stopped)
	if stopped*4 >= running {
		t.Errorf("sibling used %v of CPU during rounds that stop it, %v during rounds that do not", stopped, running)
	}
	if n, err := threadsRunning(pid); err != nil || n == 0 {
		t.Errorf("sibling not running after the rounds: %d threads running, err %v", n, err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		b      []float64
		bFail  float64
		better string
		want   string
	}{
		{[]float64{102, 101, 103, 102, 102}, 0, "lower", "no worse"},
		{[]float64{120, 121, 119, 120, 120}, 0, "lower", "worse"},
		{[]float64{120, 121, 119, 120, 120}, 0, "higher", "better"},
		{[]float64{60, 140, 100, 80, 120}, 0, "lower", "unresolved"},
		// Faster, but some operations failed: a run whose every operation
		// failed reports latency 0 and must not read as a gain.
		{[]float64{80, 81, 79, 80}, 0.01, "lower", "failed"},
		{nil, 1, "lower", "failed"},
	} {
		if _, _, got := verdict(base, tc.b, 0, tc.bFail, tc.better, 0.1); got != tc.want {
			t.Errorf("verdict(%v, fail %v, better %s) = %s, want %s", tc.b, tc.bFail, tc.better, got, tc.want)
		}
	}
}

// TestCompareLeavesOutFailedRuns checks that a run with failures adds no
// values to a set's medians and turns the verdict to failed.
func TestCompareLeavesOutFailedRuns(t *testing.T) {
	dir := t.TempDir()
	run := func(seed int64, latency float64, failed int) *runResult {
		return &runResult{Workload: "batch-cold", Seed: seed,
			outcomes: outcomes{Attempted: 50, Failed: failed},
			Metrics:  map[string]metric{"latency_ms_p50": {Value: latency, Unit: "ms"}}}
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for seed := int64(1); seed <= 3; seed++ {
		if err := appendRuns(a, []*runResult{run(seed, 100, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendRuns(b, []*runResult{run(1, 100, 0), run(2, 100, 0), run(3, 0, 50)}); err != nil {
		t.Fatal(err)
	}
	_, sa, err := loadSet(a)
	if err != nil {
		t.Fatal(err)
	}
	_, sb, err := loadSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sa.vals["batch-cold"]["latency_ms_p50"]); n != 3 {
		t.Errorf("set A has %d latency values after three appended runs, want 3", n)
	}
	if got := sb.vals["batch-cold"]["latency_ms_p50"]; len(got) != 2 {
		t.Errorf("set B's latency values %v include the failed run", got)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 worse, 0 unresolved, 1 failed") {
		t.Errorf("compare output lacks one failed verdict:\n%s", out.String())
	}
}
