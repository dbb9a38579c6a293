package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// workload is one traffic shape the benchmark drives. The comments on
// workloads record why each exists.
type workload struct {
	name string
	// served workloads send the scale-1 corpus as request bodies in a
	// seeded mix of variants, asking for refsim confirmation; the others
	// analyze the -scale tree on disk.
	served bool
	// edits makes the operation stream the seeded edit loop; otherwise a
	// tree workload analyzes the same tree every time.
	edits bool
	e2e   func(ctx context.Context, r *runner) (*e2eRun, error)
}

var workloads = []workload{
	// Every single-process layer does real work and the front end is the
	// largest share; the cache, the artifact wire and the server do nothing,
	// so this is the control for any cache or wire change.
	{name: "batch-cold", e2e: func(ctx context.Context, r *runner) (*e2eRun, error) {
		return r.cliLoop(ctx, []string{r.bin.refcheck, "-json", r.tree.dir})
	}},
	// The same input and output as batch-cold through two worker processes:
	// the front end crosses the artifact wire (encode, pipe, decode,
	// reparse), which makes the shard tax visible.
	{name: "sharded", e2e: func(ctx context.Context, r *runner) (*e2eRun, error) {
		return r.cliLoop(ctx, []string{r.bin.manager, "-shards", "2", "-json", r.tree.dir})
	}},
	// One long-lived watch process absorbing seeded edits: the front-end
	// cache hits on every unchanged file, so the cost is loader, scan, cache
	// and the global pass. Incremental-analysis work should move this and
	// leave batch-cold alone.
	{name: "edit-loop", edits: true, e2e: func(ctx context.Context, r *runner) (*e2eRun, error) {
		return r.editLoop(ctx)
	}},
	// A daemon serving a read-heavy request mix over two keep-alive
	// connections: repeats are L1 unit hits (serve and JSON overhead), new
	// variants compute under the admission gate (the tail).
	{name: "served-mix", served: true, e2e: func(ctx context.Context, r *runner) (*e2eRun, error) {
		return r.servedMix(ctx)
	}},
}

// setupLaunches is how many times a run sets the system up; setup_s is the
// median. A set-up takes 0.1 to 0.4 s, so single launches scatter with the
// host's speed by 20% and more.
const setupLaunches = 5

// rssWindow is the stretch of operations over which a long-lived process's
// resident set is read, every few operations. Its memory grows with every
// run it computes, so the stretch is fixed by operation count and ends
// early enough that runs on a slow host reach it (the slowest 20 s runs
// seen made 81 edits and 1,455 requests). The resident set rises in steps of 30 to
// 100 MB as the heap grows, at moments that vary from run to run, so a
// single reading, or the peak, scatters by 10% between runs; the metric is
// the mean of the readings. A run that ends before the stretch reads once
// at its end.
type rssWindow struct{ from, to, every int }

var (
	watchRSS  = rssWindow{from: 10, to: 50, every: 1}
	servedRSS = rssWindow{from: 100, to: 900, every: 20}
)

// sample reads pid's resident set if operation n, just completed, falls in
// the window.
func (w rssWindow) sample(e *e2eRun, pid, n int) error {
	if n < w.from || n > w.to || (n-w.from)%w.every != 0 {
		return nil
	}
	mb, err := procMemMB(pid, "VmRSS")
	e.rssMB = append(e.rssMB, mb)
	return err
}

// finishRSS reads the resident set of a run that never reached its window,
// and records the process's peak so far for reference.
func (e *e2eRun) finishRSS(pid int) error {
	if e.rssMB == nil {
		mb, err := procMemMB(pid, "VmRSS")
		if err != nil {
			return err
		}
		e.rssMB = []float64{mb}
	}
	hwm, err := procMemMB(pid, "VmHWM")
	e.extra["vmhwm_end_mb"] = hwm
	return err
}

// e2eRun is one untraced run's raw samples. Times at which set-ups and
// operations start are kept so each can be scaled by the calibration
// rounds around it.
type e2eRun struct {
	cal       calibrator
	setupS    []float64 // one per launch
	setupAt   []float64
	latencyMS []float64 // one per successful operation
	opAt      []float64
	cpuOpMS   []float64 // per successful operation (CLIs, watcher)
	cpuMS     float64   // the daemon's, over the window
	rssMB     []float64 // per-op peak RSS (ru_maxrss) for CLIs; VmRSS readings (rssWindow) otherwise
	start     time.Time
	calSpent0 time.Duration
	window    time.Duration // measured time, calibration rounds excluded
	outcomes
	extra map[string]float64
}

func newE2ERun() *e2eRun {
	e := &e2eRun{extra: map[string]float64{}}
	e.cal.base = time.Now()
	for i := 0; i < 3; i++ {
		_ = e.cal.round() // no process to stop yet, so it cannot fail
	}
	return e
}

func (e *e2eRun) startWindow() {
	e.start, e.calSpent0 = time.Now(), e.cal.spent
}

func (e *e2eRun) endWindow() {
	e.window = time.Since(e.start) - (e.cal.spent - e.calSpent0)
}

// metrics reduces the samples to the end-to-end metrics, times scaled to
// the reference host speed (see calib.go). The unscaled values go to extra.
func (e *e2eRun) metrics() map[string]metric {
	scaled := func(xs, at []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * e.cal.scaleAt(at[i])
		}
		return out
	}
	ok := float64(e.Attempted - e.Failed)
	rawCPU, cpu := e.cpuMS, e.cpuMS*e.cal.scale()
	if e.cpuOpMS != nil {
		rawCPU, cpu = sum(e.cpuOpMS), sum(scaled(e.cpuOpMS, e.opAt))
	}
	lat := scaled(e.latencyMS, e.opAt)
	setup := scaled(e.setupS, e.setupAt)
	opsPerS := ok / e.window.Seconds()
	n, nl := int(ok), len(e.latencyMS)
	e.extra["calibration_ms"] = median(e.cal.ms)
	e.extra["scale"] = e.cal.scale()
	e.extra["raw.setup_s"] = median(e.setupS)
	e.extra["raw.latency_ms_p50"] = median(e.latencyMS)
	e.extra["raw.latency_ms_p90"] = percentile(e.latencyMS, 0.9)
	e.extra["raw.ops_per_s"] = opsPerS
	e.extra["raw.cpu_ms_per_op"] = ratio(rawCPU, ok)
	return map[string]metric{
		"setup_s":        {Value: median(setup), Unit: "s", N: len(setup)},
		"latency_ms_p50": {Value: median(lat), Unit: "ms", N: nl},
		"latency_ms_p90": {Value: percentile(lat, 0.9), Unit: "ms", N: nl},
		"ops_per_s":      {Value: opsPerS / e.cal.scale(), Unit: "1/s", N: n},
		"cpu_ms_per_op":  {Value: ratio(cpu, ok), Unit: "ms", N: n},
		"rss_mb":         {Value: mean(e.rssMB), Unit: "MB", N: len(e.rssMB)},
	}
}

// more reports whether the measuring loop should start another operation.
func (r *runner) more(start time.Time, n int) bool {
	if r.opts.ops > 0 {
		return n < r.opts.ops
	}
	return time.Since(start) < r.opts.window()
}

// cliLoop runs argv closed-loop, one process at a time. Set-up is one
// unsampled warm-up run per launch.
func (r *runner) cliLoop(ctx context.Context, argv []string) (*e2eRun, error) {
	e := newE2ERun()
	for i := 0; i < setupLaunches; i++ {
		run, err := runCLI(ctx, argv)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := r.oracle.check(run.out); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		e.setupAt = append(e.setupAt, e.cal.since()-run.ms/1e3)
		e.setupS = append(e.setupS, run.ms/1e3)
		if err := e.cal.round(); err != nil {
			return nil, err
		}
	}
	e.startWindow()
	for r.more(e.start, e.Attempted) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		e.Attempted++
		at := e.cal.since()
		run, err := runCLI(ctx, argv)
		if err == nil {
			err = r.oracle.check(run.out)
		}
		if err := e.cal.round(); err != nil {
			return nil, err
		}
		if err != nil {
			e.fail(err)
			continue
		}
		e.opAt = append(e.opAt, at)
		e.latencyMS = append(e.latencyMS, run.ms)
		e.cpuOpMS = append(e.cpuOpMS, run.cpuMS)
		e.rssMB = append(e.rssMB, run.rssMB)
	}
	e.endWindow()
	return e, nil
}

// editLoop launches refcheck -watch over the tree and times each seeded edit
// until the watcher's next run line. Set-up is launch until the initial scan
// (a cold cache fill).
func (r *runner) editLoop(ctx context.Context) (*e2eRun, error) {
	e := newE2ERun()
	out := filepath.Join(r.dir, "watch-out.json")
	var svc *service
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	for i := 0; i < setupLaunches; i++ {
		if svc != nil {
			e.cal.frozen = 0
			svc.stop()
			svc = nil
		}
		cache := filepath.Join(r.dir, fmt.Sprintf("watch-cache-%d", i))
		e.setupAt = append(e.setupAt, e.cal.since())
		t0 := time.Now()
		s, err := startService([]string{r.bin.refcheck, "-watch", "-cache", cache,
			"-watch-interval", "20ms", "-json", "-watch-out", out, r.tree.dir})
		if err != nil {
			return nil, err
		}
		svc, e.cal.frozen = s, s.cmd.Process.Pid
		if _, err := svc.waitLine(ctx, "(initial scan)", opTimeout); err != nil {
			return nil, err
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
		if err := r.checkFile(out); err != nil {
			return nil, fmt.Errorf("initial scan: %w", err)
		}
		if err := e.cal.round(); err != nil {
			return nil, err
		}
	}
	pid := svc.cmd.Process.Pid
	ed := newEditor(r.tree, r.opts.seed)
	reverts := 0
	e.startWindow()
	for r.more(e.start, e.Attempted) {
		e.Attempted++
		at := e.cal.since()
		// The watcher's CPU is charged per edit, from the write to its run
		// line: the polls it makes while the benchmark calibrates between
		// edits are not the edit's cost.
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		revert, err := ed.next()
		if err != nil {
			return nil, fmt.Errorf("editing the tree: %w", err)
		}
		if revert {
			reverts++
		}
		line, err := svc.waitLine(ctx, "watch: run ", opTimeout)
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			// Without its run line the watcher's state is unknown, and a late
			// line would be credited to the next edit: stop measuring.
			e.fail(err)
			break
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		if err := watchRSS.sample(e, pid, e.Attempted); err != nil {
			return nil, err
		}
		if !strings.Contains(line, "(1 files changed)") {
			err = fmt.Errorf("watch run saw more than the one edited file: %s", line)
		} else {
			err = r.checkFile(out)
		}
		// A round after every edit gives every edit the same pause before
		// the next one.
		if err := e.cal.round(); err != nil {
			return nil, err
		}
		if err != nil {
			e.fail(err)
			continue
		}
		e.opAt = append(e.opAt, at)
		e.latencyMS = append(e.latencyMS, ms)
		e.cpuOpMS = append(e.cpuOpMS, float64(cpu1-cpu0)/1e6)
	}
	e.endWindow()
	if err := e.finishRSS(pid); err != nil {
		return nil, err
	}
	e.extra["reverts"] = float64(reverts)
	return e, nil
}

func (r *runner) checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return r.oracle.check(data)
}

// servedConns is the served-mix client count: one keep-alive connection per
// CPU of the reference host.
const servedConns = 2

// analyzeResponse is one /v1/analyze response as the client sees it.
type analyzeResponse struct {
	Output  string           `json:"output"`
	WallMS  float64          `json:"wall_ms"`
	Metrics map[string]int64 `json:"metrics"`
}

// post sends one analyze request and checks the response with the oracle.
func (r *runner) post(client *http.Client, url string, body []byte) (analyzeResponse, error) {
	var resp analyzeResponse
	hr, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	data, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return resp, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("status %s: %s", hr.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, fmt.Errorf("bad response: %v", err)
	}
	return resp, r.oracle.check([]byte(resp.Output))
}

// daemon launches refcheckd on a free port with a fresh cache and returns
// its base URL once /healthz answers.
func (r *runner) daemon(ctx context.Context, i int) (*service, string, error) {
	addrFile := filepath.Join(r.dir, fmt.Sprintf("daemon-addr-%d", i))
	svc, err := startService([]string{r.bin.daemon, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache", filepath.Join(r.dir, fmt.Sprintf("daemon-cache-%d", i))})
	if err != nil {
		return nil, "", err
	}
	if _, err := svc.waitLine(ctx, "listening on", opTimeout); err != nil {
		svc.stop()
		return nil, "", err
	}
	addr, err := os.ReadFile(addrFile)
	if err != nil {
		svc.stop()
		return nil, "", err
	}
	base := "http://" + string(addr)
	deadline := time.Now().Add(opTimeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return svc, base, nil
			}
		}
		if time.Now().After(deadline) {
			svc.stop()
			return nil, "", fmt.Errorf("refcheckd never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// servedMix drives refcheckd closed-loop from servedConns clients. Set-up is
// daemon launch until /healthz answers plus one warm-up analyze.
func (r *runner) servedMix(ctx context.Context) (*e2eRun, error) {
	e := newE2ERun()
	bs, err := newBodies(r.tree)
	if err != nil {
		return nil, err
	}
	var svc *service
	var url string
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	for i := 0; i < setupLaunches; i++ {
		if svc != nil {
			e.cal.frozen = 0
			svc.stop()
			svc = nil
		}
		e.setupAt = append(e.setupAt, e.cal.since())
		t0 := time.Now()
		s, base, err := r.daemon(ctx, i)
		if err != nil {
			return nil, err
		}
		svc, url, e.cal.frozen = s, base+"/v1/analyze", s.cmd.Process.Pid
		client := newClient()
		_, err = r.post(client, url, bs.base)
		client.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("warm-up analyze: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
		if err := e.cal.round(); err != nil {
			return nil, err
		}
	}
	pid := svc.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	vs := newVariants(r.opts.seed, len(r.tree.sources))
	var mu sync.Mutex // guards vs, e and the split samples below
	var hitMS, missMS, overheadMS []float64
	var rssErr, calErr error
	// Requests hold pause for reading; a calibration round holds it for
	// writing, so it never overlaps a request, and stops the daemon.
	var pause sync.RWMutex
	e.startWindow()
	next := func() ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !r.more(e.start, e.Attempted) || ctx.Err() != nil {
			return nil, false
		}
		e.Attempted++
		return bs.body(vs, vs.next()), true
	}
	done := make(chan struct{})
	calDone := make(chan struct{})
	go func() {
		defer close(calDone)
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			pause.Lock()
			calErr = e.cal.round() // only this goroutine touches e.cal and calErr until calDone
			pause.Unlock()
			if calErr != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < servedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				body, ok := next()
				if !ok {
					return
				}
				pause.RLock()
				at := e.cal.since()
				t0 := time.Now()
				resp, err := r.post(client, url, body)
				ms := float64(time.Since(t0)) / 1e6
				pause.RUnlock()
				mu.Lock()
				if err != nil {
					e.fail(err)
				} else {
					e.opAt = append(e.opAt, at)
					e.latencyMS = append(e.latencyMS, ms)
					overheadMS = append(overheadMS, ms-resp.WallMS)
					if resp.Metrics["cache.unit.hit"] > 0 {
						hitMS = append(hitMS, ms)
					} else {
						missMS = append(missMS, ms)
					}
				}
				if err := servedRSS.sample(e, pid, len(e.latencyMS)+e.Failed); err != nil && rssErr == nil {
					rssErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	<-calDone
	e.endWindow()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if calErr != nil {
		return nil, calErr
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	e.cpuMS = float64(cpu1-cpu0) / 1e6
	if err := e.finishRSS(pid); err != nil {
		return nil, err
	}
	e.extra["variants"] = float64(len(vs.file))
	e.extra["serve.overhead_ms_p50"] = median(overheadMS)
	e.extra["serve.hit_ms_p50"] = median(hitMS)
	e.extra["serve.miss_ms_p50"] = median(missMS)
	e.extra["serve.hits"] = float64(len(hitMS))
	return e, nil
}
