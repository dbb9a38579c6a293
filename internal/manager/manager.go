package manager

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// Config configures a multi-process run.
type Config struct {
	// Procs is the number of worker processes to drive (default 1). The
	// corpus is partitioned into Procs*chunksPerProc shards so a dead
	// worker's round-1 work is re-queued a shard at a time.
	Procs int
	// WorkerCmd is the argv used to spawn each worker; the spawned process
	// must speak the pipe protocol on stdin/stdout (e.g. `refcheck-manager
	// -worker`, or a test binary's argv shim). Required unless WorkerCmdFor is set.
	WorkerCmd []string
	// WorkerCmdFor, when non-nil, overrides WorkerCmd per worker slot —
	// the crash-recovery tests use it to give one slot a dying worker.
	WorkerCmdFor func(slot int) []string
	// CacheDir/CacheMem, when CacheDir is non-empty, are forwarded to every
	// worker's init frame: each worker opens its own handle on the shared
	// tiered cache and serves per-file front-end entries in round 1 and
	// per-file facts and report entries in round 2 from it (aggregated as
	// manager.frontend.*, manager.facts.* and manager.reports.*). Work the
	// manager runs inline opens the same directory.
	CacheDir string
	CacheMem int
	// Options configures the run: Workers is every process's build and
	// checking parallelism, Checkers and ConfigFP reach the workers' round
	// 2, and Confirm applies to the finish. Options.DB is overwritten with
	// the DB the manager's exchange populates; Cache and Admit are not
	// consulted (use CacheDir).
	Options core.Options
	// Trace receives manager spans and counters (manager.worker.deaths,
	// manager.shard.requeues, manager.shard.inline, the wire's frame bytes
	// manager.wire.records_bytes, manager.wire.check_bytes and
	// manager.wire.result_bytes, and the workers' manager.frontend.*,
	// manager.facts.* and manager.reports.* cache counters); nil disables.
	Trace *obs.Trace
}

// chunksPerProc is the work-queue granularity multiplier: each worker
// process's share of the corpus is split into this many shards.
const chunksPerProc = 4

// workerCounters maps the worker counters a reply carries to the manager
// counters that aggregate them.
var workerCounters = map[string]string{
	"frontend.cache.hit":  "manager.frontend.hit",
	"frontend.cache.miss": "manager.frontend.miss",
	"cache.facts.hit":     "manager.facts.hit",
	"cache.facts.miss":    "manager.facts.miss",
	"cache.reports.hit":   "manager.reports.hit",
	"cache.reports.miss":  "manager.reports.miss",
}

// queue is the manager's round-1 work queue. Each slot owns a fixed set of
// shards, dealt largest first to the slot with the fewest source bytes so
// far, and is handed its own first: with no deaths every slot sees a fixed
// number of shards, and each worker's round-2 share (the files it holds)
// is about even. Shards lost to a dead worker go to a shared overflow list
// that any slot drains once its own are done; whatever is left when every
// slot has stopped, the manager runs inline.
type queue struct {
	mu       sync.Mutex
	own      [][]int
	overflow []int
}

func newQueue(shards [][]cpg.Source, procs int) *queue {
	size := make([]int, len(shards))
	order := make([]int, len(shards))
	for i, sh := range shards {
		order[i] = i
		for _, src := range sh {
			size[i] += len(src.Content)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	q := &queue{own: make([][]int, procs)}
	load := make([]int, procs)
	for _, id := range order {
		slot := 0
		for s := range load {
			if load[s] < load[slot] {
				slot = s
			}
		}
		q.own[slot] = append(q.own[slot], id)
		load[slot] += size[id]
	}
	return q
}

func (q *queue) next(slot int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, list := range []*[]int{&q.own[slot], &q.overflow} {
		if len(*list) > 0 {
			id := (*list)[0]
			*list = (*list)[1:]
			return id, true
		}
	}
	return 0, false
}

// abandon moves a slot's unstarted shards, plus ids, to the overflow list.
func (q *queue) abandon(slot int, ids ...int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.overflow = append(q.overflow, q.own[slot]...)
	q.overflow = append(q.overflow, ids...)
	q.own[slot] = nil
}

func (q *queue) remaining() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append([]int(nil), q.overflow...)
	for s, list := range q.own {
		out = append(out, list...)
		q.own[s] = nil
	}
	q.overflow = nil
	return out
}

// worker is one live worker process and the shards whose round-1
// artifacts it holds.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	held   []int
}

// stop closes the worker's stdin — a clean shutdown request — and reaps it.
func (w *worker) stop() {
	w.stdin.Close()
	w.cmd.Wait()
}

// kill ends a worker the manager gave up on.
func (w *worker) kill() {
	w.stdin.Close()
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

// run is one manager run's shared state.
type run struct {
	ctx     context.Context
	cfg     Config
	shards  [][]cpg.Source
	headers map[string]string
	reg     *obs.Registry
	q       *queue
	cache   *analysiscache.Cache // the shared cache, once inline work opened it

	mu sync.Mutex
	// Per shard, once round 1 has delivered it: its records, decoded and
	// as the payload the round-2 requests forward.
	recs    [][]cpg.FileRecord
	records [][]byte
	results []*core.ShardResult
	orphans []int // shards whose holder died in round 2
}

// Run drives sources through the two-round pipeline across cfg.Procs
// worker processes and returns the same Run that core.Analyze would produce
// for the whole corpus — byte-identical reports and summary at any process
// count, with workers dying in either round, because every process runs
// the same exchange over the same path-ordered records and the manager
// finishes over the whole unit's cells (see core.Finish). The returned
// Run's Unit is nil: no process holds the whole unit.
//
// Fault model: a worker that dies (or writes garbage) forfeits its slot and
// is not respawned. In round 1 its in-flight shard and the shards it held
// are re-queued for the surviving workers, and whatever no worker completes
// runs inline in the manager. From the round-2 request on, its shards re-run
// inline — both rounds — through core.LocalRound and core.CheckRound. If
// every worker dies, Run degrades to a single-process analysis rather than
// failing.
func Run(ctx context.Context, cfg Config, sources []cpg.Source, headers map[string]string) (*core.Run, error) {
	procs := cfg.Procs
	if procs < 1 {
		procs = 1
	}
	cmdFor := cfg.WorkerCmdFor
	if cmdFor == nil {
		if len(cfg.WorkerCmd) == 0 {
			return nil, fmt.Errorf("manager: no worker command configured")
		}
		cmdFor = func(int) []string { return cfg.WorkerCmd }
	}
	if _, err := core.NewEngineFor(cfg.Options.Checkers); err != nil {
		return nil, err
	}

	m := &run{ctx: ctx, cfg: cfg, headers: headers, reg: cfg.Trace.Reg()}
	m.shards = core.Partition(sources, procs*chunksPerProc)
	m.q = newQueue(m.shards, procs)
	m.recs = make([][]cpg.FileRecord, len(m.shards))
	m.records = make([][]byte, len(m.shards))
	checkers := make([]string, len(cfg.Options.Checkers))
	for i, p := range cfg.Options.Checkers {
		checkers[i] = string(p)
	}
	initFrame := encodeInit(initMsg{
		Workers: cfg.Options.Workers, CacheDir: cfg.CacheDir, CacheMem: cfg.CacheMem,
		ConfigFP: cfg.Options.ConfigFP, Checkers: checkers, Headers: headers,
	})
	root := cfg.Trace.Root()

	// Round 1: every slot serves its shards; each worker then waits, ASTs
	// in memory, for the round-2 request.
	sp := root.Child("phase:manager").Int("round", 1).Int("procs", procs).Int("shards", len(m.shards))
	workers := make([]*worker, procs)
	var wg sync.WaitGroup
	for slot := 0; slot < procs; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			workers[slot] = m.roundOne(slot, cmdFor(slot), initFrame)
		}(slot)
	}
	wg.Wait()
	opt := cfg.Options
	opt.Cache = nil
	defer func() {
		if m.cache != nil {
			m.cache.Close()
		}
	}()
	// Worker-of-last-resort: whatever no worker completed runs inline.
	arts, err := m.localInline(m.q.remaining(), &opt)
	sp.End()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		for _, w := range workers {
			if w != nil {
				w.kill()
			}
		}
		return nil, err
	}

	// Round 2: each worker gets the records of the shards it does not hold,
	// runs the exchange and checks its own files, while the manager runs
	// the same exchange over every record. Shards whose worker dies, and
	// those the manager ran in round 1, are checked inline after.
	sp = root.Child("phase:manager").Int("round", 2)
	for _, w := range workers {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			m.roundTwo(w, m.checkFrame(w))
		}(w)
	}
	var recs []cpg.FileRecord
	for _, rs := range m.recs {
		recs = append(recs, rs...)
	}
	opt.DB = apidb.New()
	xsp := root.Child("phase:exchange")
	x := cpg.ExchangeRecords(opt.DB, recs)
	xsp.End()
	wg.Wait()
	if len(m.orphans) > 0 {
		var more []*cpg.ShardArtifact
		if more, err = m.localInline(m.orphans, &opt); err != nil {
			sp.End()
			return nil, err
		}
		arts = append(arts, more...)
	}
	sp.End()
	req := core.Request{Headers: headers, Options: opt, Trace: cfg.Trace}
	if len(arts) > 0 {
		res, err := core.CheckRound(ctx, req, x, cpg.MergeShardArtifacts(arts...))
		if err != nil {
			return nil, err
		}
		m.results = append(m.results, res)
	}
	return core.Finish(ctx, req, x, m.results)
}

// localInline runs round 1 in the manager for the given shards, recording
// the records of any shard round 1 has not delivered yet, and returns their
// artifacts. Inline work uses the shared cache directory too: the first
// inline shard opens it into opt.Cache (a directory that cannot be opened
// leaves inline work computing, with identical results).
func (m *run) localInline(ids []int, opt *core.Options) ([]*cpg.ShardArtifact, error) {
	if len(ids) > 0 && m.cfg.CacheDir != "" && m.cache == nil {
		if c, err := analysiscache.Open(m.cfg.CacheDir, analysiscache.WithMemory(int64(m.cfg.CacheMem)<<20)); err == nil {
			m.cache = c.WithRegistry(m.reg)
			opt.Cache = m.cache
		}
	}
	req := core.Request{Headers: m.headers, Options: *opt, Trace: m.cfg.Trace}
	var arts []*cpg.ShardArtifact
	for _, id := range ids {
		art, err := core.LocalRound(m.ctx, req, m.shards[id])
		if err != nil {
			return nil, err
		}
		if m.records[id] == nil {
			m.recs[id] = art.Records()
			m.records[id] = cpg.EncodeRecords(m.recs[id])
		}
		arts = append(arts, art)
		m.reg.Add("manager.shard.inline", 1)
	}
	return arts, nil
}

// addCounters folds a reply's worker counters into the manager's.
func (m *run) addCounters(cs []counter) {
	for _, c := range cs {
		if name, ok := workerCounters[c.Name]; ok {
			m.reg.Add(name, c.Value)
		}
	}
}

// roundOne owns one slot through round 1: spawn, init, then lockstep shard
// serving until the queue has nothing left for the slot. It returns the
// live worker, or nil when the worker died (its in-flight and held shards
// are re-queued) or never started (its shards are handed on).
func (m *run) roundOne(slot int, argv []string, initFrame []byte) *worker {
	cmd := exec.CommandContext(m.ctx, argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err == nil {
		var stdout io.ReadCloser
		if stdout, err = cmd.StdoutPipe(); err == nil {
			if err = cmd.Start(); err == nil {
				return m.serve(slot, &worker{cmd: cmd, stdin: stdin, stdout: stdout}, initFrame)
			}
		}
	}
	// A spawn failure is not a death — the slot's work goes to the others.
	m.q.abandon(slot)
	return nil
}

// serve runs a started worker through round 1: the init frame, then one
// shard at a time, each reply's records decoded before the shard counts as
// held. A failed write, read or decode is the worker's death.
func (m *run) serve(slot int, w *worker, initFrame []byte) *worker {
	died := func(inflight ...int) *worker {
		m.reg.Add("manager.worker.deaths", 1)
		lost := append(inflight, w.held...)
		m.reg.Add("manager.shard.requeues", int64(len(lost)))
		m.q.abandon(slot, lost...)
		w.kill()
		return nil
	}
	if err := writeFrame(w.stdin, initFrame); err != nil {
		return died()
	}
	for m.ctx.Err() == nil {
		id, ok := m.q.next(slot)
		if !ok {
			break
		}
		if err := writeFrame(w.stdin, encodeShard(shardMsg{ID: id, Sources: m.shards[id]})); err != nil {
			return died(id)
		}
		frame, err := readFrame(w.stdout)
		if err != nil {
			return died(id)
		}
		m.reg.Add("manager.wire.records_bytes", int64(len(frame)))
		msg, err := decodeRecords(frame)
		if err != nil || msg.ID != id {
			return died(id)
		}
		recs, err := cpg.DecodeRecords(msg.Records)
		if err != nil {
			return died(id)
		}
		m.mu.Lock()
		m.recs[id], m.records[id] = recs, msg.Records
		m.addCounters(msg.Counters)
		m.mu.Unlock()
		w.held = append(w.held, id)
	}
	if len(w.held) == 0 || m.ctx.Err() != nil {
		w.stop()
		return nil
	}
	return w
}

// checkFrame builds a worker's round-2 request: the records of every shard
// it does not hold.
func (m *run) checkFrame(w *worker) []byte {
	held := make(map[int]bool, len(w.held))
	for _, id := range w.held {
		held[id] = true
	}
	var msg checkMsg
	for id, p := range m.records {
		if !held[id] {
			msg.Records = append(msg.Records, p)
		}
	}
	return encodeCheck(msg)
}

// roundTwo sends one live worker the round-2 request and collects its
// result. A worker that dies leaves its shards to the manager.
func (m *run) roundTwo(w *worker, checkFrame []byte) {
	var msg resultMsg
	var res *core.ShardResult
	err := writeFrame(w.stdin, checkFrame)
	if err == nil {
		m.reg.Add("manager.wire.check_bytes", int64(len(checkFrame)))
		var frame []byte
		if frame, err = readFrame(w.stdout); err == nil {
			m.reg.Add("manager.wire.result_bytes", int64(len(frame)))
			if msg, err = decodeResult(frame); err == nil {
				res, err = core.DecodeShardResult(msg.Cells, msg.Facts)
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.reg.Add("manager.worker.deaths", 1)
		m.orphans = append(m.orphans, w.held...)
		w.kill()
		return
	}
	m.addCounters(msg.Counters)
	m.results = append(m.results, res)
	w.stop()
}
