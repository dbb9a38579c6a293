package manager

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/render"
)

// TestMain doubles as the worker executable: when the manager re-executes
// the test binary with the "repro-worker" argv, the shim runs the worker
// loop instead of the test suite — no separately built binary needed. A
// "die=N" argument arms the crash-injection hook for the recovery tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "repro-worker" {
		opts := WorkerOpts{}
		var in io.Reader = os.Stdin
		var out io.Writer = os.Stdout
		for _, a := range os.Args[2:] {
			if n, ok := strings.CutPrefix(a, "die="); ok {
				opts.ExitAfterShards, _ = strconv.Atoi(n)
			}
			if path, ok := strings.CutPrefix(a, "tap="); ok {
				// Copy every byte read and written to path.in / path.out.
				fin, err1 := os.Create(path + ".in")
				fout, err2 := os.Create(path + ".out")
				if err1 != nil || err2 != nil {
					fmt.Fprintln(os.Stderr, "worker: tap:", err1, err2)
					os.Exit(1)
				}
				in, out = io.TeeReader(in, fin), io.MultiWriter(out, fout)
			}
		}
		if err := Worker(in, out, opts); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func workerArgv(extra ...string) []string {
	return append([]string{os.Args[0], "repro-worker"}, extra...)
}

// managerCorpus is a compact synthetic kernel exercising cross-file
// discovery (loop macros, wrappers, callback pairs) plus baits — the shapes
// a partitioned run could plausibly get wrong.
func managerCorpus() ([]cpg.Source, map[string]string) {
	c := corpus.Generate(corpus.Spec{
		Seed:           23,
		CleanPerModule: 2,
		FPBaits:        2,
		Plan: []corpus.ModulePlan{
			{Subsystem: "arch", Module: "arm",
				Patterns:   map[corpus.PatternID]int{"P4": 2, "P6": 1, "P9": 1},
				TopAPIs:    []string{"of_find_compatible_node", "of_find_matching_node"},
				MissingGet: 1},
			{Subsystem: "drivers", Module: "gpu",
				Patterns: map[corpus.PatternID]int{"P3": 1, "P5": 1, "P8": 1},
				TopAPIs:  []string{"of_graph_get_port_by_id", "for_each_child_of_node"}},
			{Subsystem: "net", Module: "ipv4",
				Patterns: map[corpus.PatternID]int{"P2": 1, "P8": 1},
				TopAPIs:  []string{"sock_put"}},
		},
	})
	return sourcesOf(c)
}

// renderOut renders a run exactly as the refcheck/refcheck-manager CLIs do,
// so equality here is byte-identity of what the user sees.
func renderOut(run *core.Run) string {
	var b bytes.Buffer
	render.WriteReports(&b, run.Reports)
	render.WriteSummary(&b, run.Reports, run.Summary)
	return b.String()
}

func sourcesOf(c *corpus.Corpus) ([]cpg.Source, map[string]string) {
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs, c.Headers
}

func analyzeRef(t *testing.T, srcs []cpg.Source, headers map[string]string) string {
	t.Helper()
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: srcs, Headers: headers,
		Options: core.Options{Workers: 2, Confirm: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Reports) == 0 {
		t.Fatal("reference run produced no reports")
	}
	return renderOut(run)
}

// TestManagerMatchesAnalyze is the end-to-end determinism pin: real worker
// subprocesses at 1, 2, and 4 procs must render byte-identically to a
// single-process core.Analyze over the same corpus.
func TestManagerMatchesAnalyze(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	for _, procs := range []int{1, 2, 4} {
		tr := obs.New("manager-test")
		run, err := Run(context.Background(), Config{
			Procs:     procs,
			WorkerCmd: workerArgv(),
			Options:   core.Options{Workers: 2, Confirm: true},
			Trace:     tr,
		}, srcs, headers)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got := renderOut(run); got != want {
			t.Errorf("procs=%d: output differs from single-process Analyze", procs)
		}
		stats := tr.Reg().Snapshot()
		if stats.Counters["manager.worker.deaths"] != 0 {
			t.Errorf("procs=%d: unexpected worker deaths: %d",
				procs, stats.Counters["manager.worker.deaths"])
		}
	}
}

// TestWorkerDeathRecovery kills one worker mid-shard (it exits after
// receiving its shard, before replying) and asserts the manager runs that
// one shard inline and still renders byte-identically.
func TestWorkerDeathRecovery(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	tr := obs.New("manager-death-test")
	run, err := Run(context.Background(), Config{
		Procs: 2,
		WorkerCmdFor: func(slot int) []string {
			if slot == 0 {
				return workerArgv("die=1")
			}
			return workerArgv()
		},
		Options: core.Options{Workers: 2, Confirm: true},
		Trace:   tr,
	}, srcs, headers)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Reg().Snapshot()
	if got := stats.Counters["manager.worker.deaths"]; got != 1 {
		t.Errorf("worker deaths = %d, want 1", got)
	}
	if got := stats.Counters["manager.shard.inline"]; got != 1 {
		t.Errorf("%d shards ran inline, want the dead worker's one", got)
	}
	if got := renderOut(run); got != want {
		t.Error("output differs from single-process Analyze after worker death")
	}
}

// TestAllWorkersDieInlineDrain arms the crash hook on every slot: each
// worker dies on its shard, so the manager must run every shard inline and
// still produce identical output.
func TestAllWorkersDieInlineDrain(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	tr := obs.New("manager-drain-test")
	run, err := Run(context.Background(), Config{
		Procs:     2,
		WorkerCmd: workerArgv("die=1"),
		Options:   core.Options{Workers: 2, Confirm: true},
		Trace:     tr,
	}, srcs, headers)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Reg().Snapshot()
	if stats.Counters["manager.worker.deaths"] != 2 {
		t.Errorf("worker deaths = %d, want 2", stats.Counters["manager.worker.deaths"])
	}
	if got := stats.Counters["manager.shard.inline"]; got != 2 {
		t.Errorf("%d shards ran inline, want both", got)
	}
	if got := renderOut(run); got != want {
		t.Error("output differs from single-process Analyze after total worker loss")
	}
}

// killSlot0 runs the manager with slot 0's worker armed to exit on
// receiving its die'th work frame (1: its round-1 shard, 2: the round-2
// request) and checks that exactly that worker died and its one shard ran
// inline.
func killSlot0(t *testing.T, srcs []cpg.Source, headers map[string]string, procs, die int) string {
	t.Helper()
	tr := obs.New("manager-kill-test")
	run, err := Run(context.Background(), Config{
		Procs: procs,
		WorkerCmdFor: func(slot int) []string {
			if slot == 0 {
				return workerArgv(fmt.Sprintf("die=%d", die))
			}
			return workerArgv()
		},
		Options: core.Options{Workers: 2, Confirm: true},
		Trace:   tr,
	}, srcs, headers)
	if err != nil {
		t.Fatalf("procs=%d die=%d: %v", procs, die, err)
	}
	stats := tr.Reg().Snapshot().Counters
	if stats["manager.worker.deaths"] != 1 {
		t.Errorf("procs=%d die=%d: worker deaths = %d, want 1", procs, die, stats["manager.worker.deaths"])
	}
	if stats["manager.shard.inline"] != 1 {
		t.Errorf("procs=%d die=%d: %d shards ran inline, want the dead worker's one", procs, die, stats["manager.shard.inline"])
	}
	return renderOut(run)
}

// TestWorkerDeathBetweenRounds kills a worker after it has delivered its
// round-1 records but before it checks its files: the manager must re-run
// that worker's shard inline and still render byte-identically.
func TestWorkerDeathBetweenRounds(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)
	for _, procs := range []int{1, 2} {
		if got := killSlot0(t, srcs, headers, procs, 2); got != want {
			t.Errorf("procs=%d: output differs from single-process Analyze after a death between rounds", procs)
		}
	}
}

// TestManagerMatchesAnalyzeAtScale repeats the determinism pin on a
// generated scale-2 tree, where shards hold many files, declarations are
// resolved across shards and P6 pairs functions owned by different workers:
// procs 1, 2 and 3, plus a death in round 1 and one between the rounds.
func TestManagerMatchesAnalyzeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a scale-2 tree six times")
	}
	srcs, headers := sourcesOf(corpus.Generate(corpus.Spec{Seed: 5, Scale: 2}))
	want := analyzeRef(t, srcs, headers)
	for _, procs := range []int{1, 2, 3} {
		run, err := Run(context.Background(), Config{
			Procs:     procs,
			WorkerCmd: workerArgv(),
			Options:   core.Options{Workers: 2, Confirm: true},
		}, srcs, headers)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got := renderOut(run); got != want {
			t.Errorf("procs=%d: output differs from single-process Analyze", procs)
		}
	}
	for die := 1; die <= 2; die++ {
		if got := killSlot0(t, srcs, headers, 2, die); got != want {
			t.Errorf("die=%d: output differs from single-process Analyze after a worker death", die)
		}
	}
}

// TestManagerMatchesAnalyzeAcrossReleases checks one tree release after
// release, the workload of the paper's study: every release of a generated
// four-release history renders through two workers exactly as Analyze
// renders it, and one release again with a worker dead in round 1.
func TestManagerMatchesAnalyzeAcrossReleases(t *testing.T) {
	rs := corpus.GenerateReleases(corpus.Spec{Seed: 1, Releases: 4}, nil)
	for r := range rs.Tags {
		srcs, headers := sourcesOf(rs.At(r))
		want := analyzeRef(t, srcs, headers)
		run, err := Run(context.Background(), Config{
			Procs:     2,
			WorkerCmd: workerArgv(),
			Options:   core.Options{Workers: 2, Confirm: true},
		}, srcs, headers)
		if err != nil {
			t.Fatalf("%s: %v", rs.Tags[r], err)
		}
		if got := renderOut(run); got != want {
			t.Errorf("%s: output differs from single-process Analyze", rs.Tags[r])
		}
		if r == 1 {
			if got := killSlot0(t, srcs, headers, 2, 1); got != want {
				t.Errorf("%s: output differs from single-process Analyze after a round-1 death", rs.Tags[r])
			}
		}
	}
}

// TestOneWorkerPerShard: a corpus with fewer files than Procs is split into
// one shard per file, and only those shards' workers are spawned.
func TestOneWorkerPerShard(t *testing.T) {
	srcs, headers := managerCorpus()
	srcs = srcs[:3]
	want := analyzeRef(t, srcs, headers)
	spawned := 0
	tr := obs.New("manager-spawn-test")
	run, err := Run(context.Background(), Config{
		Procs: 8,
		WorkerCmdFor: func(int) []string {
			spawned++
			return workerArgv()
		},
		Options: core.Options{Workers: 2, Confirm: true},
		Trace:   tr,
	}, srcs, headers)
	if err != nil {
		t.Fatal(err)
	}
	if spawned != 3 {
		t.Errorf("spawned %d workers for 3 files, want 3", spawned)
	}
	if got := tr.Reg().Counter("manager.shard.inline"); got != 0 {
		t.Errorf("%d shards ran inline, want 0", got)
	}
	if got := renderOut(run); got != want {
		t.Error("output differs from single-process Analyze")
	}
}

// TestWorkerRejectsFrameOrder: a worker answers one shard frame, then one
// round-2 request, then expects its stdin to end. A second shard frame, or
// a frame after the round-2 request, is a protocol error: the worker
// process exits nonzero after the replies it owed.
func TestWorkerRejectsFrameOrder(t *testing.T) {
	srcs, headers := managerCorpus()
	shard := encodeShard(shardMsg{Sources: srcs[:1]})
	check := encodeCheck(checkMsg{})
	for _, tc := range []struct {
		name    string
		frames  [][]byte
		replies []uint8
	}{
		{"second shard", [][]byte{shard, shard}, []uint8{kRecords}},
		{"frame after round 2", [][]byte{shard, check, check}, []uint8{kRecords, kResult}},
	} {
		var in bytes.Buffer
		for _, f := range append([][]byte{encodeInit(initMsg{Workers: 1, Headers: headers})}, tc.frames...) {
			if err := writeFrame(&in, f); err != nil {
				t.Fatal(err)
			}
		}
		argv := workerArgv()
		cmd := exec.Command(argv[0], argv[1:]...)
		var out bytes.Buffer
		cmd.Stdin, cmd.Stdout = &in, &out
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() == 0 {
			t.Errorf("%s: err = %v, want a nonzero exit", tc.name, err)
		}
		for _, kind := range tc.replies {
			if frame, err := readFrame(&out); err != nil || len(frame) == 0 || frame[0] != kind {
				t.Errorf("%s: reply is not a kind-%d frame (err = %v)", tc.name, kind, err)
			}
		}
		if _, err := readFrame(&out); err != io.EOF {
			t.Errorf("%s: worker wrote an extra reply (err = %v)", tc.name, err)
		}
	}
}

// TestManagerNoWorkerCommand pins the config error path.
func TestManagerNoWorkerCommand(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, nil, nil); err == nil {
		t.Fatal("expected an error with no worker command")
	}
}

// TestManagerFrontendCache pins -cache on the manager path: two runs
// sharing a cache directory at shards >= 2 must aggregate worker front-end
// hits on the second run (manager.frontend.hit > 0) and serve every file's
// report entry (manager.reports.miss = 0) while staying byte-identical to
// the uncached single-process reference.
func TestManagerFrontendCache(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)
	cacheDir := t.TempDir()

	runOnce := func(label string) (string, map[string]int64) {
		t.Helper()
		tr := obs.New("manager-cache-test")
		run, err := Run(context.Background(), Config{
			Procs:     2,
			WorkerCmd: workerArgv(),
			CacheDir:  cacheDir,
			CacheMem:  16,
			Options:   core.Options{Workers: 2, Confirm: true},
			Trace:     tr,
		}, srcs, headers)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return renderOut(run), tr.Reg().Snapshot().Counters
	}

	cold, coldStats := runOnce("cold")
	if cold != want {
		t.Error("cold cached run differs from single-process Analyze")
	}
	if coldStats["manager.frontend.miss"] == 0 {
		t.Error("cold run reported no front-end misses — workers not using the cache?")
	}

	warm, warmStats := runOnce("warm")
	if warm != want {
		t.Error("warm cached run differs from single-process Analyze")
	}
	if hits := warmStats["manager.frontend.hit"]; hits == 0 {
		t.Error("warm run aggregated no front-end hits across workers")
	} else if misses := warmStats["manager.frontend.miss"]; misses != 0 {
		t.Errorf("warm run still missed %d files (hits=%d)", misses, hits)
	}
	// Round 2 reaches the per-file report entries too: every file that
	// defines functions is served from its entry and nothing is re-checked.
	if coldStats["manager.reports.miss"] == 0 {
		t.Error("cold run reported no report-entry misses — round 2 not using the cache?")
	}
	if hits, misses := warmStats["manager.reports.hit"], warmStats["manager.reports.miss"]; hits == 0 || misses != 0 {
		t.Errorf("warm run report entries: %d hits, %d misses, want all hits", hits, misses)
	}
}

// TestWireByteCounters: the manager's frame-byte counters equal the payload
// lengths of the frames on the wire, as tapped on the workers' side of the
// pipes: records_bytes the round-1 replies, check_bytes the round-2
// requests, result_bytes the round-2 replies.
func TestWireByteCounters(t *testing.T) {
	srcs, headers := managerCorpus()
	dir := t.TempDir()
	const procs = 2
	tr := obs.New("wire")
	if _, err := Run(context.Background(), Config{
		Procs: procs,
		WorkerCmdFor: func(slot int) []string {
			return workerArgv("tap=" + filepath.Join(dir, strconv.Itoa(slot)))
		},
		Options: core.Options{Workers: 2},
		Trace:   tr,
	}, srcs, headers); err != nil {
		t.Fatal(err)
	}
	// sum adds the payload lengths of the frames of one kind in a tapped
	// stream.
	sum := func(path string, kind uint8) int64 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for len(data) >= 4 {
			size := int(binary.LittleEndian.Uint32(data))
			if 4+size > len(data) {
				t.Fatalf("%s: truncated frame", path)
			}
			if size > 0 && data[4] == kind {
				n += int64(size)
			}
			data = data[4+size:]
		}
		return n
	}
	want := map[string]int64{}
	for slot := 0; slot < procs; slot++ {
		tap := filepath.Join(dir, strconv.Itoa(slot))
		want["manager.wire.records_bytes"] += sum(tap+".out", kRecords)
		want["manager.wire.check_bytes"] += sum(tap+".in", kCheck)
		want["manager.wire.result_bytes"] += sum(tap+".out", kResult)
	}
	for name, w := range want {
		if w == 0 {
			t.Fatalf("%s: no such frame was tapped", name)
		}
		if got := tr.Reg().Counter(name); got != w {
			t.Errorf("%s = %d, want %d (the tapped frames' payload bytes)", name, got, w)
		}
	}
}
