package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/difftest"
	"repro/internal/facts"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/watch"
)

// The traced pass replays a workload in-process at workers=1 and times every
// call the benchmark makes into a layer's public API. Spans are recorded by
// the benchmark itself (the program under test stays untraced) and can be
// exported as a Chrome trace; allocations come from runtime/metrics deltas
// around each call.

// managerShards is the shard count refcheck-manager -shards 2 partitions
// into (2 processes × 4 chunks each); the wire rows encode exactly those.
const managerShards = 2 * 4

// layerMetric is one per-layer metric the traced pass emits.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in ledger order. BENCHMARK.json
// declares the same names; the smoke test keeps the two in step.
var layerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"loader.ms", "ms"}, {"loader.mb", "MB"},
		{"watch.scan_ms", "ms"},
		{"clex.ms", "ms"}, {"clex.allocs", "objects"}, {"clex.tokens", "count"},
		{"cpp.ms", "ms"}, {"cpp.allocs", "objects"}, {"cpp.out_tokens", "count"}, {"cpp.headercache_hit_rate", "ratio"},
		{"cparse.ms", "ms"}, {"cparse.allocs", "objects"}, {"cparse.errors", "count"},
		{"apidb.observe.ms", "ms"}, {"apidb.observe.allocs", "objects"},
		{"cpg.local.ms", "ms"}, {"cpg.local.allocs", "objects"},
		{"cpg.encode.ms", "ms"}, {"cpg.decode.ms", "ms"}, {"cpg.hydrate.ms", "ms"}, {"cpg.wire_mb", "MB"},
		{"apidb.apply.ms", "ms"}, {"apidb.apply.allocs", "objects"}, {"apidb.discovered_apis", "count"},
		{"cpg.assemble.ms", "ms"}, {"cpg.assemble.allocs", "objects"}, {"cpg.functions", "count"},
		{"facts.ms", "ms"}, {"facts.allocs", "objects"}, {"facts.traces", "count"},
		{"core.check.ms", "ms"},
	}
	for _, p := range difftest.Patterns {
		m = append(m, layerMetric{"core." + p + ".ms", "ms"})
	}
	for _, p := range difftest.Patterns {
		m = append(m, layerMetric{"core." + p + ".reports", "count"})
	}
	return append(m,
		layerMetric{"refsim.ms", "ms"}, layerMetric{"refsim.confirmed_ratio", "ratio"},
		layerMetric{"render.ms", "ms"},
		layerMetric{"facts.codec.encode_ms", "ms"}, layerMetric{"facts.codec.decode_ms", "ms"}, layerMetric{"facts.codec.mb", "MB"},
		layerMetric{"analysiscache.flush_ms", "ms"}, layerMetric{"analysiscache.flushes", "count"},
		layerMetric{"analysiscache.unit_hit_rate", "ratio"}, layerMetric{"analysiscache.frontend_hit_rate", "ratio"},
		layerMetric{"analysiscache.facts_hit_rate", "ratio"}, layerMetric{"analysiscache.l1_hit_rate", "ratio"},
		layerMetric{"serve.overhead_ms_p50", "ms"}, layerMetric{"serve.hit_ms_p50", "ms"}, layerMetric{"serve.miss_ms_p50", "ms"},
		layerMetric{"manager.overhead_ms", "ms"},
		layerMetric{"trace.coverage", "ratio"},
	)
}()

// ledger collects one traced pass: a span per layer call under a span per
// operation, and each metric's per-operation values.
type ledger struct {
	tr    *obs.Trace
	op    *obs.Span
	vals  map[string][]float64
	alloc []metrics.Sample
}

func newLedger(name string) *ledger {
	return &ledger{
		tr:    obs.New(name),
		vals:  map[string][]float64{},
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (l *ledger) allocs() float64 {
	metrics.Read(l.alloc)
	return float64(l.alloc[0].Value.Uint64())
}

// call runs fn as one layer call under the current operation's span and
// returns its wall time in ms and the heap objects it allocated.
func (l *ledger) call(layer string, fn func()) (ms, allocs float64) {
	sp := l.op.Child(layer)
	a0 := l.allocs()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	allocs = l.allocs() - a0
	sp.End()
	return float64(d) / 1e6, allocs
}

func (l *ledger) put(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

// selfCPU is the benchmark process's own user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracePass is one workload's traced replay.
type tracePass struct {
	r *runner
	w workload
	l *ledger

	snap    watch.Snapshot
	ed      *editor   // edit-loop's edit stream
	vs      *variants // served-mix's request plan
	lastVar int       // the variant currently on disk

	probeCache *analysiscache.Cache // the flush probe's cache
	srv        *serve.Server
	srvCache   *analysiscache.Cache

	inprocCPU []float64 // per op: CPU of the stages refcheck-manager runs
	counters  map[string]int64
	hitMS     []float64
	missMS    []float64
}

// tracedRun performs the traced pass for r's workload.
func (r *runner) tracedRun(ctx context.Context, w workload) (*runResult, error) {
	p := &tracePass{r: r, w: w, l: newLedger("refbench " + w.name), counters: map[string]int64{}}
	switch {
	case w.edits:
		p.ed = newEditor(r.tree, r.opts.seed)
	case w.served:
		p.vs = newVariants(r.opts.seed, len(r.tree.sources))
	}
	var err error
	// The flush probe's cache flushes only when asked and keeps nothing in
	// memory, so each timed Flush writes exactly the entry put before it.
	if p.probeCache, err = analysiscache.Open(filepath.Join(r.dir, "probe-cache"),
		analysiscache.WithMemory(0), analysiscache.WithFlushThreshold(1<<40)); err != nil {
		return nil, err
	}
	defer p.probeCache.Close()
	if p.srvCache, err = analysiscache.Open(filepath.Join(r.dir, "serve-cache")); err != nil {
		return nil, err
	}
	defer p.srvCache.Close()
	p.srv = serve.New(serve.Config{Workers: 1, Cache: p.srvCache})
	defer p.srv.Close()
	p.snap = watch.Scan([]string{r.tree.dir})
	if err := p.warmUp(ctx); err != nil {
		return nil, err
	}

	res := &runResult{}
	start := time.Now()
	for r.more(start, res.Attempted) || res.Attempted < 2 {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res.Attempted++
		if err := p.op(ctx, res.Attempted); err != nil {
			res.fail(err)
		}
	}
	res.Attempted++ // the manager probe
	mgr, err := p.managerCPU(ctx)
	if err != nil {
		res.fail(err)
	}
	p.l.tr.Done()
	if r.opts.traceOut != "" {
		if err := writeChromeTrace(r.opts.traceOut, p.l.tr); err != nil {
			return nil, err
		}
	}
	res.Metrics = p.metrics(mgr)
	res.Samples = p.l.vals
	return res, nil
}

// warmUp runs the layer replay and core.Analyze once, unrecorded, so the
// first recorded operation does not pay the heap growth and first-touch
// costs the later ones skip.
func (p *tracePass) warmUp(ctx context.Context) error {
	recorded := p.l
	defer func() { p.l, p.inprocCPU = recorded, nil }()
	p.l = newLedger("warm-up")
	p.l.op = p.l.tr.Root()
	rp, err := p.replayAnalysis(ctx)
	if err == nil {
		_, err = p.analyze(ctx, rp.tree)
	}
	if err == nil {
		err = p.sideLayers(ctx, rp, 0)
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// analyze times the program's own single-process pipeline, core.Analyze
// at workers=1, on t, and checks its reports with the oracle.
func (p *tracePass) analyze(ctx context.Context, t *loader.Tree) (float64, error) {
	runtime.GC()
	var run *core.Run
	var err error
	ms, _ := p.l.call("core.Analyze", func() {
		run, err = core.Analyze(ctx, core.Request{Sources: t.Sources, Headers: t.Headers,
			Options: core.Options{Workers: 1, Confirm: p.w.served}})
	})
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := render.WriteJSON(&buf, run.Reports); err != nil {
		return 0, err
	}
	if err := p.r.oracle.check(buf.Bytes()); err != nil {
		return 0, fmt.Errorf("core.Analyze: %w", err)
	}
	return ms, nil
}

func writeChromeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// advance moves the tree on disk to the next operation's state.
func (p *tracePass) advance() error {
	switch {
	case p.ed != nil:
		_, err := p.ed.next()
		return err
	case p.vs != nil:
		v := p.vs.next()
		if v == p.lastVar {
			return nil
		}
		t := p.r.tree
		write := func(f int, content string) error {
			return writeAtomic(filepath.Join(t.dir, filepath.FromSlash(t.sources[f].Path)), []byte(content))
		}
		if f := p.vs.file[p.lastVar]; f >= 0 {
			if err := write(f, t.sources[f].Content); err != nil {
				return err
			}
		}
		p.lastVar = v
		if f := p.vs.file[v]; f >= 0 {
			return write(f, t.sources[f].Content+editComment(v))
		}
	}
	return nil
}

// op is one traced operation: the workload's next tree state analyzed layer
// by layer between two core.Analyze runs of the same tree, for the coverage
// check; then the layers only some runs use, the front end split into its
// layers, and the tree sent through the serving layer.
func (p *tracePass) op(ctx context.Context, n int) error {
	if err := p.advance(); err != nil {
		return err
	}
	l := p.l
	l.op = l.tr.Root().Child("op").Int("n", n)
	defer l.op.End()

	roots := []string{p.r.tree.dir}
	var cur watch.Snapshot
	ms, _ := l.call("watch", func() { cur = watch.Scan(roots); _ = watch.Diff(p.snap, cur) })
	l.put("watch.scan_ms", ms)
	p.snap = cur

	// The layer calls should account for core.Analyze's wall time. The host
	// changes speed from one second to the next, so core.Analyze runs just
	// before and just after the replay and the coverage uses their mean.
	t, err := loader.LoadDirs(p.r.tree.dir)
	if err != nil {
		return err
	}
	before, err := p.analyze(ctx, t)
	if err != nil {
		return err
	}
	rp, err := p.replayAnalysis(ctx)
	if err != nil {
		return err
	}
	after, err := p.analyze(ctx, rp.tree)
	if err != nil {
		return err
	}
	l.put("trace.coverage", rp.layersMS/(rp.loaderMS+(before+after)/2+rp.renderMS))

	if err := p.sideLayers(ctx, rp, n); err != nil {
		return err
	}
	p.frontEnd(rp.tree)
	return p.serveProbe(rp.tree)
}

// replay is what the layers timed after the coverage bracket need from one
// replay of core.Analyze's layers. It holds no unit or facts: core.Analyze
// runs right after the replay, and a larger live heap would slow its
// garbage collection.
type replay struct {
	tree               *loader.Tree
	facts              []byte  // the encoded facts snapshot
	layersMS           float64 // the top-level layers core.Analyze runs
	loaderMS, renderMS float64
}

// replayAnalysis replays the analysis phase by phase — load, the
// shard-local front end, Exchange, assembly, facts, checks, render, refsim
// confirmation — timing each layer, then each checker alone and the facts
// codec.
func (p *tracePass) replayAnalysis(ctx context.Context) (*replay, error) {
	l := p.l
	runtime.GC()
	cpu0 := selfCPU()
	var t *loader.Tree
	var err error
	loaderMS, _ := l.call("loader", func() { t, err = loader.LoadDirs(p.r.tree.dir) })
	if err != nil {
		return nil, err
	}
	l.put("loader.ms", loaderMS)
	bytesRead := 0
	for _, s := range t.Sources {
		bytesRead += len(s.Content)
	}
	for _, h := range t.Headers {
		bytesRead += len(h)
	}
	l.put("loader.mb", float64(bytesRead)/1e6)

	// The single-process composition: one in-memory artifact over the whole
	// tree, exactly the first half of the build core.Analyze runs.
	var art *cpg.ShardArtifact
	localMS, localAllocs := l.call("cpg.local", func() {
		b := &cpg.Builder{Workers: 1, Headers: cpp.NewIndexedFiles(t.Headers)}
		art = b.BuildArtifactContext(ctx, t.Sources, false)
	})
	l.put("cpg.local.ms", localMS)
	l.put("cpg.local.allocs", localAllocs)

	db := apidb.New()
	var merged *cpg.ShardArtifact
	var disc apidb.Discovery
	applyMS, allocs := l.call("apidb.apply", func() { merged, disc = core.Exchange(db, []*cpg.ShardArtifact{art}) })
	l.put("apidb.apply.ms", applyMS)
	l.put("apidb.apply.allocs", allocs)
	l.put("apidb.discovered_apis", float64(len(disc.APIs)))

	var u *cpg.Unit
	assembleMS, allocs := l.call("cpg.assemble", func() {
		u = (&cpg.Builder{DB: db, Workers: 1}).AssembleContext(ctx, merged, &disc)
	})
	l.put("cpg.assemble.ms", assembleMS)
	l.put("cpg.assemble.allocs", allocs)
	l.put("cpg.functions", float64(len(u.Functions)))

	rp := &replay{tree: t, loaderMS: loaderMS}
	var uf *facts.UnitFacts
	var snap map[string]*facts.Data
	factsMS, allocs := l.call("facts", func() { uf = facts.NewUnit(u); snap = uf.Snapshot() })
	l.put("facts.ms", factsMS)
	l.put("facts.allocs", allocs)
	traces := 0
	for _, d := range snap {
		traces += len(d.Traces)
	}
	l.put("facts.traces", float64(traces))

	var reports []core.Report
	checkMS, _ := l.call("core.check", func() {
		e := core.NewEngine()
		e.Workers = 1
		reports = e.CheckUnitFacts(uf)
	})
	l.put("core.check.ms", checkMS)

	var buf bytes.Buffer
	rp.renderMS, _ = l.call("render", func() { err = render.WriteJSON(&buf, reports) })
	if err != nil {
		return nil, err
	}
	l.put("render.ms", rp.renderMS)
	// The replay so far plus the wire (see sideLayers) is the work
	// refcheck-manager spreads over its processes; the difference to the
	// manager's own CPU is its tax.
	p.inprocCPU = append(p.inprocCPU, float64(selfCPU()-cpu0)/1e6)
	if err := p.r.oracle.check(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	confirmed := append([]core.Report(nil), reports...)
	var nConfirmed int
	refsimMS, _ := l.call("refsim", func() { nConfirmed = core.ConfirmReports(confirmed, 1) })
	l.put("refsim.ms", refsimMS)
	l.put("refsim.confirmed_ratio", ratio(float64(nConfirmed), float64(len(confirmed))))

	// Layers core.Analyze does not run, timed here while the unit's facts
	// are at hand: each checker alone, and the facts codec.
	for _, pat := range difftest.Patterns {
		var n int
		ms, _ := l.call("core."+pat, func() {
			e, _ := core.NewEngineFor([]core.Pattern{core.Pattern(pat)}) // a built-in pattern
			e.Workers = 1
			n = len(e.CheckUnitFacts(uf))
		})
		l.put("core."+pat+".ms", ms)
		l.put("core."+pat+".reports", float64(n))
	}
	ms, _ := l.call("facts.codec.encode", func() { rp.facts = facts.EncodeSnapshot(snap) })
	l.put("facts.codec.encode_ms", ms)
	l.put("facts.codec.mb", float64(len(rp.facts))/1e6)
	ms, _ = l.call("facts.codec.decode", func() { _, err = facts.DecodeSnapshot(rp.facts) })
	if err != nil {
		return nil, err
	}
	l.put("facts.codec.decode_ms", ms)

	rp.layersMS = loaderMS + localMS + applyMS + assembleMS + factsMS + checkMS + rp.renderMS
	if p.w.served {
		rp.layersMS += refsimMS
	}
	return rp, nil
}

// sideLayers times the layers only some runs use that need no unit: the
// artifact wire refcheck-manager adds, and a cache flush.
func (p *tracePass) sideLayers(ctx context.Context, rp *replay, n int) error {
	l := p.l
	t := rp.tree
	// The wire, on the shards refcheck-manager partitions the tree into:
	// LocalPass per shard retains the token streams encoding needs (not
	// timed: the shard-local work is cpg.local's), then encode, decode and
	// the reparse (Hydrate) the manager runs on arrival.
	shards := core.Partition(t.Sources, managerShards)
	arts := make([]*cpg.ShardArtifact, len(shards))
	var err error
	for i, sh := range shards {
		if arts[i], err = core.LocalPass(ctx, core.Request{Headers: t.Headers, Options: core.Options{Workers: 1}}, sh); err != nil {
			return err
		}
	}
	cpu0 := selfCPU()
	wire := make([][]byte, len(arts))
	wireBytes := 0
	ms, _ := l.call("cpg.encode", func() {
		for i, a := range arts {
			wire[i] = cpg.EncodeShardArtifact(a)
			wireBytes += len(wire[i])
		}
	})
	l.put("cpg.encode.ms", ms)
	l.put("cpg.wire_mb", float64(wireBytes)/1e6)
	arts = nil
	decoded := make([]*cpg.ShardArtifact, len(wire))
	ms, _ = l.call("cpg.decode", func() {
		for i, b := range wire {
			if decoded[i], err = cpg.DecodeShardArtifact(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	l.put("cpg.decode.ms", ms)
	ms, _ = l.call("cpg.hydrate", func() {
		for _, a := range decoded {
			a.Hydrate(1)
		}
	})
	l.put("cpg.hydrate.ms", ms)
	p.inprocCPU[len(p.inprocCPU)-1] += float64(selfCPU()-cpu0) / 1e6

	// One pack write of this tree's facts entry: the disk-tier cost every
	// computing run pays when a cache is configured. The key is unique per
	// operation so no pack is already on disk.
	if err := p.probeCache.Put(analysiscache.KeyOf("refbench-flush", fmt.Sprint(n)), rp.facts); err != nil {
		return err
	}
	ms, _ = l.call("analysiscache.flush", func() { err = p.probeCache.Flush() })
	if err != nil {
		return err
	}
	l.put("analysiscache.flush_ms", ms)
	return nil
}

// frontEnd splits cpg.local's per-file front end into its layers, run
// layer-major over the tree so each layer is one call span: clex lexing,
// cpp preprocessing (self time: minus the lexing it repeats), cparse, and
// apidb's per-file discovery observation.
func (p *tracePass) frontEnd(t *loader.Tree) {
	l := p.l
	srcs := t.Sources
	tokens := 0
	clexMS, clexAllocs := l.call("clex", func() {
		for _, s := range srcs {
			ln, _ := clex.TokenizeLines(s.Path, s.Content, nil)
			tokens += len(ln.Toks)
		}
	})
	l.put("clex.ms", clexMS)
	l.put("clex.allocs", clexAllocs)
	l.put("clex.tokens", float64(tokens))

	hc := cpp.NewHeaderCache()
	headers := cpp.NewIndexedFiles(t.Headers)
	results := make([]*cpp.Result, len(srcs))
	cppMS, cppAllocs := l.call("cpp", func() {
		for i, s := range srcs {
			results[i] = cpp.New(headers).WithHeaderCache(hc).Process(s.Path, s.Content)
		}
	})
	l.put("cpp.ms", cppMS-clexMS)
	l.put("cpp.allocs", cppAllocs-clexAllocs)
	out := 0
	for _, r := range results {
		out += len(r.Tokens)
	}
	l.put("cpp.out_tokens", float64(out))
	st := hc.Stats()
	l.put("cpp.headercache_hit_rate", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))

	files := make([]*cast.File, len(srcs))
	errs := 0
	ms, allocs := l.call("cparse", func() {
		for i, s := range srcs {
			var perrs []error
			files[i], perrs = cparse.ParseFile(s.Path, results[i].Tokens)
			errs += len(perrs)
		}
	})
	l.put("cparse.ms", ms)
	l.put("cparse.allocs", allocs)
	l.put("cparse.errors", float64(errs))

	ms, allocs = l.call("apidb.observe", func() {
		for i, s := range srcs {
			apidb.ObserveFile(s.Path, files[i], results[i].Macros)
		}
	})
	l.put("apidb.observe.ms", ms)
	l.put("apidb.observe.allocs", allocs)
}

// serveProbe posts the tree to an in-process refcheckd handler twice: the
// first request sees whatever the workload's history left in the server's
// cache (its counters give the cache hit rates), the second is an L1 unit
// hit. The handler's wall time minus the run's wall_ms is the serving
// layer's own overhead: request decode, render and response encode.
func (p *tracePass) serveProbe(t *loader.Tree) error {
	req := serve.AnalyzeRequest{Headers: t.Headers, JSON: true, Confirm: p.w.served}
	for _, s := range t.Sources {
		req.Sources = append(req.Sources, serve.SourceFile{Path: s.Path, Content: s.Content})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	h := p.srv.Handler()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		ms, _ := p.l.call("serve", func() { h.ServeHTTP(rec, hr) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		var resp analyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("serve: bad response: %v", err)
		}
		if err := p.r.oracle.check([]byte(resp.Output)); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		p.l.put("serve.overhead_ms", ms-resp.WallMS)
		if resp.Metrics["cache.unit.hit"] > 0 {
			p.hitMS = append(p.hitMS, ms)
		} else {
			p.missMS = append(p.missMS, ms)
		}
		if i == 0 {
			for k, v := range resp.Metrics {
				p.counters[k] += v
			}
		}
	}
	return nil
}

// managerRuns is how many refcheck-manager processes the manager row takes
// the median of.
const managerRuns = 5

// managerCPU runs refcheck-manager -shards 2 over the final tree state and
// returns the median CPU per run across the manager and its workers.
func (p *tracePass) managerCPU(ctx context.Context) (float64, error) {
	var cpu []float64
	for i := 0; i < managerRuns; i++ {
		run, err := runCLI(ctx, []string{p.r.bin.manager, "-shards", "2", "-json", p.r.tree.dir})
		if err != nil {
			return 0, err
		}
		if err := p.r.oracle.check(run.out); err != nil {
			return 0, fmt.Errorf("refcheck-manager: %w", err)
		}
		cpu = append(cpu, run.cpuMS)
	}
	return median(cpu), nil
}

// metrics reduces the pass to the per-layer metrics: per-operation medians,
// and rates over the whole pass.
func (p *tracePass) metrics(managerCPU float64) map[string]metric {
	out := map[string]metric{}
	units := map[string]string{}
	for _, m := range layerMetrics {
		units[m.name] = m.unit
	}
	set := func(name string, v float64, n int) {
		out[name] = metric{Value: v, Unit: units[name], N: n}
	}
	for name, vs := range p.l.vals {
		if _, ok := units[name]; ok {
			set(name, median(vs), len(vs))
		}
	}
	c := func(name string) float64 { return float64(p.counters[name]) }
	rate := func(hit, miss string) float64 { return ratio(c(hit), c(hit)+c(miss)) }
	ops := len(p.l.vals["loader.ms"])
	set("analysiscache.unit_hit_rate", rate("cache.unit.hit", "cache.unit.miss"), ops)
	set("analysiscache.frontend_hit_rate", rate("frontend.cache.hit", "frontend.cache.miss"), ops)
	set("analysiscache.facts_hit_rate", rate("cache.facts.hit", "cache.facts.miss"), ops)
	set("analysiscache.l1_hit_rate", rate("cache.l1.hit", "cache.l1.miss"), ops)
	set("analysiscache.flushes", ratio(c("cache.l2.batch.flushes"), float64(ops)), ops)
	set("serve.overhead_ms_p50", median(p.l.vals["serve.overhead_ms"]), len(p.l.vals["serve.overhead_ms"]))
	set("serve.hit_ms_p50", median(p.hitMS), len(p.hitMS))
	set("serve.miss_ms_p50", median(p.missMS), len(p.missMS))
	set("manager.overhead_ms", managerCPU-median(p.inprocCPU), managerRuns)
	return out
}
