package manager

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// Config configures a multi-process run.
type Config struct {
	// Procs is the most worker processes to drive (default 1). The corpus
	// is split into Procs byte-balanced shards (fewer when it has fewer
	// files; see core.Partition) and each shard gets one worker.
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
	// manager.shard.inline, the wire's frame bytes
	// manager.wire.records_bytes, manager.wire.check_bytes and
	// manager.wire.result_bytes, and the workers' manager.frontend.*,
	// manager.facts.* and manager.reports.* cache counters); nil disables.
	Trace *obs.Trace
}

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

// worker is one live worker process.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
}

// call sends the worker frames and reads its one reply frame.
func (w *worker) call(frames ...[]byte) ([]byte, error) {
	for _, f := range frames {
		if err := writeFrame(w.stdin, f); err != nil {
			return nil, err
		}
	}
	return readFrame(w.stdout)
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
	cache   *analysiscache.Cache // the shared cache, once inline work opened it

	// Per shard, once round 1 has delivered it: its records, decoded and
	// as the payload the round-2 requests forward.
	recs    [][]cpg.FileRecord
	records [][]byte
}

// Run drives sources through the two-round pipeline across cfg.Procs
// worker processes and returns the same Run that core.Analyze would produce
// for the whole corpus — byte-identical reports and summary at any process
// count, with workers dying in either round, because every process runs
// the same exchange over the same path-ordered records and the manager
// finishes over the whole unit's cells (see core.Finish). The returned
// Run's Unit is nil: no process holds the whole unit.
//
// Fault model: each shard has one worker, and a worker that fails to
// start, dies or writes garbage is not respawned. One rule covers both
// rounds: a shard whose worker is gone runs inline in the manager, through
// core.LocalRound and core.CheckRound. If every worker dies, Run degrades
// to a single-process analysis rather than failing.
func Run(ctx context.Context, cfg Config, sources []cpg.Source, headers map[string]string) (*core.Run, error) {
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
	m.shards = core.Partition(sources, max(cfg.Procs, 1))
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

	// Round 1: each shard's worker runs its front end and then waits, ASTs
	// in memory, for the round-2 request.
	sp := root.Child("phase:manager").Int("round", 1).Int("shards", len(m.shards))
	workers := make([]*worker, len(m.shards))
	var wg sync.WaitGroup
	for slot := range m.shards {
		argv := cmdFor(slot)
		wg.Add(1)
		go func() {
			defer wg.Done()
			workers[slot] = m.roundOne(slot, argv, initFrame)
		}()
	}
	wg.Wait()
	opt := cfg.Options
	opt.Cache = nil
	defer func() {
		if m.cache != nil {
			m.cache.Close()
		}
	}()
	var gone []int
	for slot, w := range workers {
		if w == nil {
			gone = append(gone, slot)
		}
	}
	arts, err := m.localInline(gone, &opt)
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

	// Round 2: each live worker gets the records of every other shard, runs
	// the exchange and checks its own files, while the manager runs the
	// same exchange over every record. The shards whose worker is gone are
	// checked inline after.
	sp = root.Child("phase:manager").Int("round", 2)
	results := make([]*core.ShardResult, len(workers))
	for slot, w := range workers {
		if w != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[slot] = m.roundTwo(slot, w)
			}()
		}
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
	gone = gone[:0]
	var done []*core.ShardResult
	for slot, w := range workers {
		if results[slot] != nil {
			done = append(done, results[slot])
		} else if w != nil {
			gone = append(gone, slot)
		}
	}
	more, err := m.localInline(gone, &opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	arts = append(arts, more...)
	req := core.Request{Headers: headers, Options: opt, Trace: cfg.Trace}
	if len(arts) > 0 {
		res, err := core.CheckRound(ctx, req, x, cpg.MergeShardArtifacts(arts...))
		if err != nil {
			return nil, err
		}
		done = append(done, res)
	}
	return core.Finish(ctx, req, x, done)
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

// roundOne spawns the slot's worker and runs it through round 1: the init
// frame, then the slot's shard, whose reply's records must decode before
// the shard counts as delivered. It returns the live worker, or nil when
// the worker never started or died (a failed write, read or decode).
func (m *run) roundOne(slot int, argv []string, initFrame []byte) *worker {
	cmd := exec.CommandContext(m.ctx, argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil
	}
	if cmd.Start() != nil {
		return nil // a spawn failure is not a death
	}
	w := &worker{cmd: cmd, stdin: stdin, stdout: stdout}
	var msg recordsMsg
	var recs []cpg.FileRecord
	frame, err := w.call(initFrame, encodeShard(shardMsg{Sources: m.shards[slot]}))
	if err == nil {
		m.reg.Add("manager.wire.records_bytes", int64(len(frame)))
		if msg, err = decodeRecords(frame); err == nil {
			recs, err = cpg.DecodeRecords(msg.Records)
		}
	}
	if err != nil {
		m.reg.Add("manager.worker.deaths", 1)
		w.kill()
		return nil
	}
	m.recs[slot], m.records[slot] = recs, msg.Records
	m.addCounters(msg.Counters)
	return w
}

// roundTwo sends the slot's live worker the round-2 request, the records of
// every other shard, and returns its result, or nil when the worker died.
func (m *run) roundTwo(slot int, w *worker) *core.ShardResult {
	var check checkMsg
	for id, p := range m.records {
		if id != slot {
			check.Records = append(check.Records, p)
		}
	}
	req := encodeCheck(check)
	m.reg.Add("manager.wire.check_bytes", int64(len(req)))
	var msg resultMsg
	var res *core.ShardResult
	frame, err := w.call(req)
	if err == nil {
		m.reg.Add("manager.wire.result_bytes", int64(len(frame)))
		if msg, err = decodeResult(frame); err == nil {
			res, err = core.DecodeShardResult(msg.Cells, msg.Facts)
		}
	}
	if err != nil {
		m.reg.Add("manager.worker.deaths", 1)
		w.kill()
		return nil
	}
	m.addCounters(msg.Counters)
	w.stop()
	return res
}
