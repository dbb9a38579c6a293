// Command refbench is the repository's benchmark: one command that measures
// refcheck, refcheck-manager, refcheckd and watch mode end to end, and a
// traced in-process replay that splits the same work into a per-layer
// ledger.
//
// It builds the three commands from the checkout, generates every input
// from -seed (corpus.Generate written out with loader.WriteTree), and runs
// one workload closed-loop for -seconds. With -trace 0 the real binaries
// run untraced and the end-to-end metrics are reported; with -trace 1 the
// workload is replayed in-process at workers=1 and the per-layer metrics
// are reported. Every operation's output is checked against the corpus
// plan. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 61, "failed": 0, "metrics": {"latency_ms_p50": {"value": 318.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (bench/run.sh keeps the Go build cache
// inside the checkout):
//
//	bash bench/run.sh -workload batch-cold -seed 1 -seconds 28 -trace 0
//	bash bench/run.sh -workload all -seed 2 -out set.json
//	bash bench/run.sh -compare a.json b.json
//
// See bench/README.md for the workloads, the metric catalog and the
// layer-to-end-to-end map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    int // corpus scale of the tree workloads; served-mix always uses 1
	ops      int // stop each run after this many operations (0: after seconds)
	out      string
	traceOut string
}

// treeScale is the tree workloads' corpus scale: 588 .c files, 1,413
// reports at seed 1.
const treeScale = 4

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// metric is one reported value. N, the sample count behind it, is kept in
// result files and printed on standard error, not on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is one run of one workload, with its raw samples.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Scale    int     `json:"scale"`
	Seconds  float64 `json:"seconds"`
	outcomes
	PrepS   map[string]float64   `json:"prep_s"`
	Metrics map[string]metric    `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Extra   map[string]float64   `json:"extra,omitempty"`
}

// outcomes counts a run's operations and keeps its first few failures.
type outcomes struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (o *outcomes) fail(err error) {
	o.Failed++
	if len(o.Errors) < 5 {
		o.Errors = append(o.Errors, err.Error())
	}
}

// resultSet is a -out file: the host of its first run, and every run
// appended to it.
type resultSet struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
}

func currentHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// runner holds one run's environment.
type runner struct {
	opts   options
	dir    string // the run's scratch directory
	bin    binaries
	tree   *tree
	oracle *oracle
}

func main() {
	o := options{scale: treeScale}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (corpus, edits and request mix)")
	flag.Float64Var(&o.seconds, "seconds", 28, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run of the binaries; 1: traced per-layer replay")
	flag.StringVar(&o.out, "out", "", "append every run, with raw samples, to this JSON result set (created with a host header)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the traced pass as a Chrome trace to this file")
	compare := flag.Bool("compare", false, "compare two -out files: refbench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: refbench -compare A.json B.json")
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		fatalf("unknown workload %q (have %s)", o.workload, workloadNames())
	case o.trace != 0 && o.trace != 1:
		fatalf("-trace must be 0 or 1")
	case o.seconds <= 0:
		fatalf("-seconds must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runs, err := run(ctx, o, selected)
	if err != nil {
		fatalf("%v", err)
	}
	if o.out != "" {
		if err := appendRuns(o.out, runs); err != nil {
			fatalf("writing %s: %v", o.out, err)
		}
	}
	for _, r := range runs {
		printResultLine(r)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "refbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run builds the commands once, then runs every selected workload. All
// scratch state lives under bench/.build in the checkout and is removed on
// return.
func run(ctx context.Context, o options, selected []workload) ([]*runResult, error) {
	base := filepath.Join("bench", ".build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	bin, err := buildBinaries(ctx, ".", filepath.Join(tmp, "bin"))
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	fmt.Fprintf(os.Stderr, "refbench: prep: built refcheck, refcheck-manager, refcheckd in %.2fs\n", buildS)

	var runs []*runResult
	for _, w := range selected {
		res, err := runOne(ctx, o, w, bin, tmp)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, o.seed, err)
		}
		res.PrepS["build"] = buildS
		runs = append(runs, res)
		printSummary(res)
	}
	return runs, nil
}

// runOne generates the workload's input and runs it once.
func runOne(ctx context.Context, o options, w workload, bin binaries, tmp string) (*runResult, error) {
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	scale := o.scale
	if w.served {
		scale = 1
	}
	t0 := time.Now()
	t, err := writeTree(filepath.Join(dir, "tree"), o.seed, scale)
	if err != nil {
		return nil, err
	}
	prep := map[string]float64{"generate_and_write": time.Since(t0).Seconds()}
	r := &runner{opts: o, dir: dir, bin: bin, tree: t, oracle: newOracle(t.corpus, o.seed)}

	var res *runResult
	if o.trace == 1 {
		res, err = r.tracedRun(ctx, w)
	} else {
		res, err = r.e2eRun(ctx, w)
	}
	if err != nil {
		return nil, err
	}
	res.Workload, res.Seed, res.Trace, res.Scale, res.Seconds = w.name, o.seed, o.trace == 1, scale, o.seconds
	res.PrepS = prep
	// A value with no sample behind it (every operation failed) is NaN, which
	// JSON cannot carry; compare leaves runs with failures out anyway.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	for name, v := range res.Extra {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Extra[name] = 0
		}
	}
	// Samples are kept at microsecond (or 1e-3 unit) resolution, which keeps
	// result files small without touching the metrics computed above.
	for _, xs := range res.Samples {
		for i, x := range xs {
			xs[i] = math.Round(x*1e3) / 1e3
		}
	}
	return res, nil
}

// appendRuns adds runs to the result set at path, creating it with this
// host's header if it does not exist, so one invocation per run builds up a
// set. The file is rewritten whole with one run per line.
func appendRuns(path string, runs []*runResult) error {
	set := &resultSet{Host: currentHost()}
	if err := readJSON(path, set); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, runs...)
	var buf bytes.Buffer
	host, err := json.Marshal(set.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "{\"host\": %s,\n\"runs\": [\n", host)
	for i, r := range set.Runs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(set.Runs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func (r *runner) e2eRun(ctx context.Context, w workload) (*runResult, error) {
	e, err := w.e2e(ctx, r)
	if err != nil {
		return nil, err
	}
	return &runResult{
		outcomes: e.outcomes,
		Metrics:  e.metrics(),
		Samples: map[string][]float64{
			"setup_s": e.setupS, "setup_at_s": e.setupAt,
			"latency_ms": e.latencyMS, "op_at_s": e.opAt, "cpu_ms": e.cpuOpMS, "rss_mb": e.rssMB,
			"calibration_ms": e.cal.ms, "calibration_at_s": e.cal.at,
		},
		Extra: e.extra,
	}, nil
}

// printResultLine prints the run's result object: exactly correct,
// attempted, failed and metrics, each metric as its value and unit.
func printResultLine(r *runResult) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]valueUnit{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(data))
}

// printSummary writes a run's metrics, with sample counts, to stderr.
func printSummary(r *runResult) {
	mode := "e2e"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "refbench: %s seed %d (%s, scale %d): %d attempted, %d failed; prep %.2fs\n",
		r.Workload, r.Seed, mode, r.Scale, r.Attempted, r.Failed, r.PrepS["generate_and_write"])
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %12.4f %-8s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	extras := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Fprintf(os.Stderr, "  (extra) %-26s %12.4f\n", n, r.Extra[n])
	}
}
