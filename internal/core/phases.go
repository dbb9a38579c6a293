package core

import (
	"context"
	"sort"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/facts"
)

// The distributed phase API: Analyze split at its natural barriers.
//
// The pipeline's cross-file dependencies (API discovery, the declaration
// table, the inter-paired callback checker P6) are small next to the
// per-file work, so the split is two rounds around one exchange. Partition
// the corpus; in round 1 (LocalRound) each process runs the DB-independent
// front end over its shard and keeps the ASTs, handing on one small
// cpg.FileRecord per file; every process runs the same exchange
// (cpg.ExchangeRecords) over all the records; in round 2 (CheckRound) each
// process assembles its own files against the exchange, derives their facts
// and runs the function-scoped checkers; Finish drops every process's cells
// into the whole unit's slots and runs P6, the deferral table and finalize.
// Analyze is these functions run in process over a single shard (see
// compute), so output is byte-identical at any shard count by construction.
// internal/manager drives the same functions across worker processes.

// Partition splits sources into at most `shards` deterministic, disjoint,
// non-empty shards of about equal source bytes: files are dealt largest
// first (ties by path), each to the shard with the fewest bytes so far
// (then the fewest files, then the lowest index), and each shard is sorted
// by path. The partition depends only on the corpus and the shard count,
// never on input order, discovery order or process scheduling. Fewer
// sources than shards yields one shard per source; an empty corpus yields
// no shards.
func Partition(sources []cpg.Source, shards int) [][]cpg.Source {
	sorted := append([]cpg.Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool {
		if a, b := len(sorted[i].Content), len(sorted[j].Content); a != b {
			return a > b
		}
		return sorted[i].Path < sorted[j].Path
	})
	shards = min(max(shards, 1), len(sorted))
	if shards == 0 {
		return nil
	}
	out := make([][]cpg.Source, shards)
	size := make([]int, shards)
	for _, s := range sorted {
		k := 0
		for i := range out {
			if size[i] < size[k] || size[i] == size[k] && len(out[i]) < len(out[k]) {
				k = i
			}
		}
		out[k] = append(out[k], s)
		size[k] += len(s.Content)
	}
	for _, sh := range out {
		sort.Slice(sh, func(i, j int) bool { return sh[i].Path < sh[j].Path })
	}
	return out
}

// LocalRound is round 1 on one shard: preprocess, parse and observe every
// file. It is deliberately DB-independent — a process needs no discovery
// state for it, so any shard may run in any process. The artifact stays in
// memory with its ASTs (and an L1 front-end entry's parse memo) for round
// 2; art.Records() is all of it the exchange needs. Only req.Headers,
// req.Options.Workers, req.Options.Cache and req.Trace are consulted; the
// cache serves per-file front-end entries.
func LocalRound(ctx context.Context, req Request, shard []cpg.Source) (*cpg.ShardArtifact, error) {
	return localPass(ctx, req, shard, false)
}

// LocalPass is LocalRound with token retention: each file's expanded token
// stream is copied so the artifact can be serialized with
// cpg.EncodeShardArtifact. The two-round pipeline never ships tokens; this
// form remains for measuring the artifact wire.
func LocalPass(ctx context.Context, req Request, shard []cpg.Source) (*cpg.ShardArtifact, error) {
	return localPass(ctx, req, shard, true)
}

func localPass(ctx context.Context, req Request, shard []cpg.Source, retain bool) (*cpg.ShardArtifact, error) {
	sp := req.Trace.Root().Child("phase:local")
	b := &cpg.Builder{Workers: req.Options.Workers, Cache: req.Options.Cache, Obs: sp}
	if req.Headers != nil {
		b.Headers = newHeaderProvider(req.Headers)
	}
	art := b.BuildArtifactContext(ctx, shard, retain)
	sp.End()
	return art, ctx.Err()
}

// Exchange merges shard artifacts back into global sorted path order and
// replays their discovery observations into db: the artifact form of the
// exchange, whose result cpg.Builder.AssembleContext consumes. The
// two-round pipeline runs cpg.ExchangeRecords instead.
func Exchange(db *apidb.DB, arts []*cpg.ShardArtifact) (*cpg.ShardArtifact, apidb.Discovery) {
	merged := cpg.MergeShardArtifacts(arts...)
	return merged, db.Apply(merged.Observations())
}

// ShardResult is round 2's output for one process's files: the raw checker
// cells (see Engine.checkFunctions) of the functions whose winning
// definition those files hold, and the facts of those among them that the
// unit-scoped checkers read. A worker process sends it back with Encode.
type ShardResult struct {
	names []string // owned defined functions, sorted
	cells [][][]Report
	facts map[string]*facts.Data

	// uf and pending are what storeFiles needs: the shard's facts and the
	// per-file cache entries that missed.
	uf      *facts.UnitFacts
	pending fileEntries
}

// Encode serializes the result: the cells in the per-file report entry's
// codec (reports-v2, which never writes witness blocks) and the facts as a
// facts.EncodeSnapshot snapshot.
func (r *ShardResult) Encode() (cells, factsData []byte) {
	ent := make(map[string][][]Report, len(r.names))
	for i, name := range r.names {
		ent[name] = r.cells[i]
	}
	return encodeReportsEntry(ent), facts.EncodeSnapshot(r.facts)
}

// DecodeShardResult parses what Encode wrote; malformed input returns
// bincodec.ErrCorrupt.
func DecodeShardResult(cells, factsData []byte) (*ShardResult, error) {
	v, err := decodeReportsValue(cells)
	if err != nil {
		return nil, err
	}
	snap, err := facts.DecodeSnapshot(factsData)
	if err != nil {
		return nil, err
	}
	ent := v.(map[string][][]Report)
	r := &ShardResult{facts: snap, names: make([]string, 0, len(ent))}
	for name := range ent {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.cells = make([][][]Report, len(r.names))
	for i, name := range r.names {
		r.cells[i] = ent[name]
	}
	return r, nil
}

// CheckRound is round 2 over one process's files: assemble art (a
// LocalRound artifact, or several merged) against the exchange x —
// req.Options.DB must be the DB x's discovery was applied to — then derive
// facts and run the function-scoped checkers, and collect the unit-scoped
// checkers' inputs among the files' functions. With req.Options.Cache set
// it seeds the facts and cells from the per-file entries and queues the
// entries that missed; the caller makes them durable with one Flush (or
// Close) once its run's entries are all queued.
func CheckRound(ctx context.Context, req Request, x *cpg.Exchange, art *cpg.ShardArtifact) (*ShardResult, error) {
	if req.Options.DB == nil {
		req.Options.DB = apidb.New()
	}
	return checkMemo(ctx, req, &exchangeMemo{x: x, db: req.Options.DB}, art)
}

// checkMemo is CheckRound against an exchange's memo, whose derivations
// it reads and, on first use, fills in.
func checkMemo(ctx context.Context, req Request, m *exchangeMemo, art *cpg.ShardArtifact) (*ShardResult, error) {
	opt, x := req.Options, m.x
	engine, err := newEngine(opt)
	if err != nil {
		return nil, err
	}
	root := req.Trace.Root()
	sp := root.Child("phase:assemble")
	u := (&cpg.Builder{DB: opt.DB, Workers: opt.Workers, Obs: sp}).AssembleShard(art, x)
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	csp := root.Child("phase:check")
	engine.Obs = csp
	uf := facts.NewUnit(u)
	ins := m.unitInputs(engine)
	res := &ShardResult{uf: uf, names: uf.FunctionNames()}
	if opt.Cache != nil {
		res.pending = preloadFiles(opt.Cache, opt.ConfigFP, engine, m, ins, u, uf, req.Trace.Reg())
	}
	res.cells = engine.checkFunctions(ctx, uf, res.pending.cells)
	if err := ctx.Err(); err != nil {
		// A cancelled check may have skipped functions; partial cells must
		// never be finished or cached.
		csp.End()
		return nil, err
	}
	res.facts = map[string]*facts.Data{}
	for _, name := range ins.names {
		if ff := uf.Function(name); ff != nil {
			res.facts[name] = ff.Data
		}
	}
	uf.Observe(req.Trace.Reg())
	csp.End()
	if opt.Cache != nil {
		ssp := root.Child("phase:cache-store")
		res.storeFiles(opt.Cache)
		ssp.End()
	}
	return res, nil
}

// Finish ends a run from every process's round-2 results: it drops their
// cells into the whole unit's slot array — every defined function, in name
// order, each owned by exactly one result — runs the unit-scoped checkers,
// the deferral table and finalize over it with the results' facts,
// summarizes from the exchange and optionally confirms. req.Options.DB
// must hold x's discovery.
func Finish(ctx context.Context, req Request, x *cpg.Exchange, results []*ShardResult) (*Run, error) {
	opt := req.Options
	engine, err := newEngine(opt)
	if err != nil {
		return nil, err
	}
	var cells [][][]Report
	if len(results) == 1 {
		cells = results[0].cells // one process held the whole unit
	} else {
		type slot struct {
			name  string
			cells [][]Report
		}
		var slots []slot
		for _, r := range results {
			for i, name := range r.names {
				slots = append(slots, slot{name, r.cells[i]})
			}
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].name < slots[j].name })
		cells = make([][][]Report, len(slots))
		for i, s := range slots {
			cells[i] = s.cells
		}
	}
	lookup := func(name string) *facts.Data {
		for _, r := range results {
			if d := r.facts[name]; d != nil {
				return d
			}
		}
		return nil
	}
	run := &Run{Trace: req.Trace, Summary: summarize(x)}
	csp := req.Trace.Root().Child("phase:check")
	engine.Obs = csp
	run.Reports = engine.finish(cells, &UnitView{DB: opt.DB, Decls: x.Decls, Facts: lookup})
	csp.End()
	confirm(run, opt)
	return run, ctx.Err()
}

// storeFiles stores every per-file facts and report entry that missed. A
// write failure only costs the next run a recompute.
func (r *ShardResult) storeFiles(cache *analysiscache.Cache) {
	for _, m := range r.pending.facts {
		// SnapshotOf forces any still-uncomputed functions (a subset run
		// with only unit-scoped checkers may not have touched them all) so
		// every stored entry covers its whole file.
		snap := r.uf.SnapshotOf(m.names)
		_ = cache.PutValue(m.key, snap, facts.EncodeSnapshot(snap))
	}
	for _, m := range r.pending.reports {
		rep := make(map[string][][]Report, len(m.names))
		for k, name := range m.names {
			rep[name] = stripCells(r.cells[m.pos[k]])
		}
		_ = cache.PutValue(m.key, rep, encodeReportsEntry(rep))
	}
}

// stripCells copies one function's cells with witness blocks stripped (see
// stripWitnessBlocks).
func stripCells(fc [][]Report) [][]Report {
	out := make([][]Report, len(fc))
	for ci, cell := range fc {
		out[ci] = stripWitnessBlocks(cell)
	}
	return out
}

// newEngine builds the checker engine for the options' checker selection
// and worker count.
func newEngine(opt Options) (*Engine, error) {
	engine, err := NewEngineFor(opt.Checkers)
	if err != nil {
		return nil, err
	}
	engine.Workers = opt.Workers
	return engine, nil
}
