package manager

import (
	"context"
	"fmt"
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
	// Procs is the number of worker processes to drive (default 1). The
	// corpus is partitioned into Procs*chunksPerProc shards so a slow or
	// dead worker only strands a fraction of the work.
	Procs int
	// WorkerCmd is the argv used to spawn each worker; the spawned process
	// must speak the pipe protocol on stdin/stdout (e.g. `refcheck-manager
	// -worker`, or a test binary's argv shim). Required unless WorkerCmdFor is set.
	WorkerCmd []string
	// WorkerCmdFor, when non-nil, overrides WorkerCmd per worker slot —
	// the crash-recovery tests use it to give one slot a dying worker.
	WorkerCmdFor func(slot int) []string
	// Workers is the per-process build parallelism sent in the init frame
	// (0 means GOMAXPROCS in the worker).
	Workers int
	// CacheDir/CacheMem, when CacheDir is non-empty, are forwarded to every
	// worker's init frame: each worker opens its own handle on the shared
	// tiered cache and serves per-file front-end entries from it (hits are
	// aggregated as manager.frontend.hit / manager.frontend.miss). The
	// global pass still always computes — unit- and facts-level caching
	// remain single-process concerns.
	CacheDir string
	CacheMem int
	// Options configures the manager-side global pass (checkers, confirm,
	// workers). Options.DB is overwritten with the DB core.Exchange
	// populates; core.GlobalPass consults neither Cache nor Admit (use
	// CacheDir for the workers' front-end cache).
	Options core.Options
	// Trace receives manager spans and counters (manager.worker.deaths,
	// manager.shard.requeues, manager.shard.inline, manager.frontend.hit,
	// manager.frontend.miss); nil disables.
	Trace *obs.Trace
}

// chunksPerProc is the work-queue granularity multiplier: each worker
// process's share of the corpus is split into this many shards.
const chunksPerProc = 4

// queue is the manager's shard work queue. Shards are handed out in index
// order; a shard lost to a worker death is pushed back and handed to
// whichever slot asks next. Remaining() after all slots exit is whatever no
// worker completed — the manager drains those inline.
type queue struct {
	mu      sync.Mutex
	pending []int
}

func (q *queue) next() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return 0, false
	}
	id := q.pending[0]
	q.pending = q.pending[1:]
	return id, true
}

func (q *queue) requeue(id int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, id)
}

func (q *queue) remaining() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append([]int(nil), q.pending...)
	q.pending = nil
	return out
}

// Run drives sources through the partition-then-exchange pipeline across
// cfg.Procs worker processes and returns the same Run that core.Analyze
// would produce for the whole corpus — byte-identical reports and summary at
// any process count, with any workers dying mid-shard, because shard
// artifacts are merged back into global order before a single exchange
// (see core.Exchange).
//
// Fault model: a worker that dies (or writes garbage) forfeits its slot —
// its in-flight shard is re-queued for the surviving workers, and the slot
// is not respawned. If every worker dies, the manager itself drains the
// queue inline via core.LocalPass, so Run degrades to a single-process
// analysis rather than failing.
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

	shards := core.Partition(sources, procs*chunksPerProc)
	reg := cfg.Trace.Reg()
	sp := cfg.Trace.Root().Child("phase:manager")
	sp.Int("procs", procs)
	sp.Int("shards", len(shards))

	q := &queue{pending: make([]int, len(shards))}
	for i := range shards {
		q.pending[i] = i
	}
	arts := make([]*cpg.ShardArtifact, len(shards))
	var artsMu sync.Mutex
	initFrame := encodeInit(initMsg{
		Workers: cfg.Workers, CacheDir: cfg.CacheDir, CacheMem: cfg.CacheMem,
		Headers: headers,
	})

	var wg sync.WaitGroup
	for slot := 0; slot < procs; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			runSlot(ctx, cmdFor(slot), initFrame, cfg.Workers, q, shards, arts, &artsMu, reg)
		}(slot)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, err
	}

	// Worker-of-last-resort: anything still queued (all assigned workers
	// died, or there were more shards than worker appetite) runs inline,
	// against the same shared cache directory the workers use.
	if rest := q.remaining(); len(rest) > 0 {
		inlineOpt := core.Options{Workers: cfg.Workers}
		if cfg.CacheDir != "" {
			if c, err := analysiscache.Open(cfg.CacheDir, analysiscache.WithMemory(int64(cfg.CacheMem)<<20)); err == nil {
				inlineOpt.Cache = c
				defer c.Close()
			}
		}
		req := core.Request{Sources: sources, Headers: headers,
			Options: inlineOpt, Trace: cfg.Trace}
		for _, id := range rest {
			art, err := core.LocalPass(ctx, req, shards[id])
			if err != nil {
				sp.End()
				return nil, err
			}
			art.Hydrate(cfg.Workers)
			arts[id] = art
			reg.Add("manager.shard.inline", 1)
		}
	}
	sp.End()

	opt := cfg.Options
	opt.DB = apidb.New()
	xsp := cfg.Trace.Root().Child("phase:exchange")
	merged, disc := core.Exchange(opt.DB, arts)
	xsp.End()
	greq := core.Request{Sources: sources, Headers: headers, Options: opt, Trace: cfg.Trace}
	return core.GlobalPass(ctx, greq, merged, disc)
}

// runSlot owns one worker process: spawn, init, then lockstep shard serving
// until the queue drains or the worker dies. On death the in-flight shard is
// re-queued and the slot exits — surviving slots (or the inline drain)
// absorb the remaining work.
func runSlot(ctx context.Context, argv []string, initFrame []byte, workers int, q *queue,
	shards [][]cpg.Source, arts []*cpg.ShardArtifact, artsMu *sync.Mutex, reg *obs.Registry) {

	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return
	}
	if err := cmd.Start(); err != nil {
		// Spawn failure is not a death — the work just stays queued for
		// the inline drain.
		return
	}
	died := func(inflight int) {
		reg.Add("manager.worker.deaths", 1)
		if inflight >= 0 {
			q.requeue(inflight)
			reg.Add("manager.shard.requeues", 1)
		}
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}
	if err := writeFrame(stdin, initFrame); err != nil {
		died(-1)
		return
	}
	for {
		id, ok := q.next()
		if !ok || ctx.Err() != nil {
			stdin.Close()
			cmd.Wait()
			return
		}
		if err := writeFrame(stdin, encodeShard(shardMsg{ID: id, Sources: shards[id]})); err != nil {
			died(id)
			return
		}
		frame, err := readFrame(stdout)
		if err != nil {
			died(id)
			return
		}
		msg, err := decodeArtifact(frame)
		if err != nil || msg.ID != id {
			died(id)
			return
		}
		art, err := cpg.DecodeShardArtifact(msg.Payload)
		if err != nil {
			died(id)
			return
		}
		reg.Add("manager.frontend.hit", int64(msg.FEHits))
		reg.Add("manager.frontend.miss", int64(msg.FEMisses))
		// Parse the shard's files as soon as the artifact lands and drop
		// their token streams: memory then scales with AST size per shard,
		// not with the whole corpus's retained token streams.
		art.Hydrate(workers)
		artsMu.Lock()
		arts[id] = art
		artsMu.Unlock()
	}
}
