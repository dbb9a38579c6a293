package manager

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// WorkerOpts configures a worker loop.
type WorkerOpts struct {
	// ExitAfterShards, when positive, makes the worker call os.Exit(3)
	// immediately after receiving its Nth work frame, before replying, so
	// the work in flight is lost: 1 is the round-1 shard, 2 the round-2
	// request (a death between the rounds). It is the crash-injection hook
	// the recovery tests (and verify gate) use to exercise the manager's
	// inline path with a real process death.
	ExitAfterShards int
}

// Worker runs the worker half of the pipe protocol: read the init frame,
// answer the round-1 shard frame with the shard's file records while
// keeping its artifact, then answer the round-2 request by running the
// exchange over every record and checking the shard's files, then wait for
// stdin to end. A stdin that ends before a work frame is a clean shutdown; a
// frame out of that order, or after the round-2 request, is an error.
// Between runs a worker keeps nothing but what the shared tiered cache
// holds (when the init frame names a cache directory), so per-file entries
// computed by one run's workers are reused by the next run's.
func Worker(r io.Reader, w io.Writer, opts WorkerOpts) error {
	first, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("manager worker: reading init: %w", err)
	}
	init, err := decodeInit(first)
	if err != nil {
		return fmt.Errorf("manager worker: decoding init: %w", err)
	}
	var cache *analysiscache.Cache
	if init.CacheDir != "" {
		// A worker that cannot open the cache degrades to computing — the
		// result is identical either way, so cache trouble must not kill
		// the run.
		if c, cerr := analysiscache.Open(init.CacheDir, analysiscache.WithMemory(int64(init.CacheMem)<<20)); cerr == nil {
			cache = c
		} else {
			fmt.Fprintf(os.Stderr, "manager worker: cache disabled: %v\n", cerr)
		}
	}
	// Close flushes the per-file entries CheckRound queued; the manager
	// waits for this exit before its Run returns, so the next run sees them.
	defer func() {
		if cache != nil {
			if cerr := cache.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "manager worker: cache flush: %v\n", cerr)
			}
		}
	}()
	opt := core.Options{Workers: init.Workers, Cache: cache, ConfigFP: init.ConfigFP}
	for _, p := range init.Checkers {
		opt.Checkers = append(opt.Checkers, core.Pattern(p))
	}
	ctx := context.Background()

	var art *cpg.ShardArtifact // the shard's artifact, ASTs kept for round 2
	var own []cpg.FileRecord
	for received := 1; received <= 2; received++ {
		frame, err := readFrame(r)
		if err == io.EOF {
			return nil // clean shutdown: manager closed our stdin
		}
		if err != nil {
			return fmt.Errorf("manager worker: reading request: %w", err)
		}
		if received == opts.ExitAfterShards {
			os.Exit(3)
		}
		// A fresh trace per request isolates the counters this reply
		// carries.
		req := core.Request{Headers: init.Headers, Options: opt, Trace: obs.New("manager-worker")}
		var reply []byte
		if received == 1 {
			art, own, reply, err = localShard(ctx, req, frame)
		} else {
			reply, err = checkShard(ctx, req, frame, art, own)
		}
		if err != nil {
			return fmt.Errorf("manager worker: %w", err)
		}
		if err := writeFrame(w, reply); err != nil {
			return fmt.Errorf("manager worker: writing reply: %w", err)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		return fmt.Errorf("manager worker: want end of input after the round-2 reply")
	}
	return nil
}

// localShard answers the round-1 shard frame: it runs the local round and
// returns the shard's artifact and records, kept for round 2, with the
// records reply.
func localShard(ctx context.Context, req core.Request, frame []byte) (*cpg.ShardArtifact, []cpg.FileRecord, []byte, error) {
	sh, err := decodeShard(frame)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("decoding shard: %w", err)
	}
	art, err := core.LocalRound(ctx, req, sh.Sources)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("round 1: %w", err)
	}
	req.Trace.Done()
	recs := art.Records()
	return art, recs, encodeRecords(recordsMsg{Counters: counters(req.Trace),
		Records: cpg.EncodeRecords(recs)}), nil
}

// checkShard answers the round-2 request, which carries the records of
// every other shard: the exchange over those and the shard's own records,
// then the check round over the shard's files.
func checkShard(ctx context.Context, req core.Request, frame []byte, art *cpg.ShardArtifact, own []cpg.FileRecord) ([]byte, error) {
	m, err := decodeCheck(frame)
	if err != nil {
		return nil, fmt.Errorf("decoding round-2 request: %w", err)
	}
	recs := own
	for _, p := range m.Records {
		rs, err := cpg.DecodeRecords(p)
		if err != nil {
			return nil, fmt.Errorf("decoding records: %w", err)
		}
		recs = append(recs, rs...)
	}
	req.Options.DB = apidb.New()
	x := cpg.ExchangeRecords(req.Options.DB, recs)
	res, err := core.CheckRound(ctx, req, x, art)
	if err != nil {
		return nil, fmt.Errorf("round 2: %w", err)
	}
	req.Trace.Done()
	cells, facts := res.Encode()
	return encodeResult(resultMsg{Counters: counters(req.Trace), Cells: cells, Facts: facts}), nil
}

// counters lists a finished trace's counters in name order.
func counters(tr *obs.Trace) []counter {
	snap := tr.Reg().Snapshot().Counters
	out := make([]counter, 0, len(snap))
	for name, v := range snap {
		out = append(out, counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
