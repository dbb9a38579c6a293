package core

import (
	"context"
	"sort"

	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/facts"
)

// The distributed phase API: Analyze split at its natural barrier.
//
// The pipeline's cross-file dependencies (API discovery, the inter-paired
// callback checker P6, the facts layer) all live *after* the per-file front
// end, so the split is: Partition the corpus, run a DB-independent LocalPass
// per shard in any process, Exchange the shards' discovery observations into
// one global apidb, then run the GlobalPass (assembly + facts + checkers +
// confirmation) against the merged view. Analyze is these phases run in
// process over a single in-memory shard (see compute), so output is
// byte-identical at any shard count by construction. internal/manager
// drives the same phases across worker processes.

// Partition splits sources into at most `shards` deterministic, disjoint,
// non-empty shards: sources are sorted by path and dealt round-robin, so the
// partition depends only on the corpus and the shard count, never on
// discovery order or process scheduling. Fewer sources than shards yields
// one shard per source; an empty corpus yields no shards.
func Partition(sources []cpg.Source, shards int) [][]cpg.Source {
	sorted := append([]cpg.Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	if shards < 1 {
		shards = 1
	}
	if shards > len(sorted) {
		shards = len(sorted)
	}
	if shards == 0 {
		return nil
	}
	out := make([][]cpg.Source, shards)
	for i, s := range sorted {
		out[i%shards] = append(out[i%shards], s)
	}
	return out
}

// LocalPass runs the shard-local half of the pipeline on one shard:
// preprocess, parse, and extract discovery observations, producing a
// serializable artifact. It is deliberately DB-independent — workers carry
// no discovery state, so they are stateless and interchangeable (any worker
// may process any shard, and a re-queued shard lands wherever). Only
// req.Headers, req.Options.Workers, req.Options.Cache and req.Trace are
// consulted; the cache serves per-file front-end entries (preprocessed
// token streams keyed by content), which is exactly the shard-local,
// DB-independent portion of the tiered cache.
func LocalPass(ctx context.Context, req Request, shard []cpg.Source) (*cpg.ShardArtifact, error) {
	return localPass(ctx, req, shard, true)
}

// localPass is LocalPass with the artifact's retention chosen: retain keeps
// token streams for the wire; without it the artifact stays in memory with
// its ASTs (Analyze's single in-process shard).
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

// Exchange is the manager-side barrier between the local and global halves:
// shard artifacts are merged back into global sorted path order and their
// discovery observations replayed into db, which afterward holds exactly the
// entries a single-process whole-corpus scan would have built (the replay is
// a pure function of the ordered observation sequence; see apidb.Apply). The
// returned artifact and discovery feed GlobalPass, whose Options.DB must be
// this same db.
func Exchange(db *apidb.DB, arts []*cpg.ShardArtifact) (*cpg.ShardArtifact, apidb.Discovery) {
	merged := cpg.MergeShardArtifacts(arts...)
	return merged, db.Apply(merged.Observations())
}

// GlobalPass runs everything after the exchange: assemble the merged
// artifact into a unit (reparsing files that crossed a process boundary),
// compute facts, run the checkers (including cross-file P6), and optionally
// confirm. req.Options.DB must be the DB that Exchange populated; no cache
// is consulted (the manager path always computes).
func GlobalPass(ctx context.Context, req Request, merged *cpg.ShardArtifact, disc apidb.Discovery) (*Run, error) {
	opt := req.Options
	engine, err := newEngine(opt)
	if err != nil {
		return nil, err
	}
	opt.Cache = nil
	run := &Run{Trace: req.Trace}
	if _, err := globalPass(ctx, opt, engine, "", merged, disc, run); err != nil {
		return run, err
	}
	confirm(run, opt)
	return run, ctx.Err()
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

// globalPass is the post-exchange pipeline, written once for Analyze and
// GlobalPass: assemble (opt.DB must hold the exchange), consult the per-file
// facts and report entries when opt.Cache is set, check, and — with a
// cache — store the unit entry under key plus every per-file entry that
// missed. It fills run in place, so a cancelled call still leaves the
// partial Run visible, and returns the stored unit entry (nil without a
// cache). Confirmation is the caller's job: the entry must stay
// confirmation-agnostic.
func globalPass(ctx context.Context, opt Options, engine *Engine, key string, merged *cpg.ShardArtifact, disc apidb.Discovery, run *Run) (*unitEntry, error) {
	root := run.Trace.Root()
	reg := run.Trace.Reg()
	cache := opt.Cache

	asp := root.Child("phase:assemble")
	u := (&cpg.Builder{DB: opt.DB, Workers: opt.Workers, Obs: asp}).AssembleContext(ctx, merged, &disc)
	asp.End()
	run.Unit = u
	run.Summary = summarize(u)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	uf := facts.NewUnit(u)
	var pre fileEntries
	if cache != nil {
		pre = preloadFiles(cache, opt.ConfigFP, engine, u, uf, reg)
	}
	csp := root.Child("phase:check")
	engine.Obs = csp
	run.Reports, pre.cells = engine.check(ctx, uf, pre.cells)
	csp.End()
	uf.Observe(reg)
	if err := ctx.Err(); err != nil {
		// A cancelled check may have skipped functions; the partial report
		// list must never be cached under the full corpus key.
		return nil, err
	}
	if cache == nil {
		return nil, nil
	}

	ssp := root.Child("phase:cache-store")
	// Store before confirmation so the entry is confirmation-agnostic; a
	// write failure only costs the next run a recompute. PutValue lands the
	// decoded entry in L1 and queues the bytes for the disk tier's batch;
	// the explicit Flush makes this run's entries durable and visible to
	// other processes without waiting for thresholds.
	ent := &unitEntry{Summary: run.Summary, Reports: stripWitnessBlocks(run.Reports)}
	_ = cache.PutValue(key, ent, encodeUnitEntry(ent))
	for _, m := range pre.facts {
		// SnapshotOf forces any still-uncomputed functions (a subset run
		// with only unit-scoped checkers may not have touched them all) so
		// every stored entry covers its whole file.
		snap := uf.SnapshotOf(m.names)
		_ = cache.PutValue(m.key, snap, facts.EncodeSnapshot(snap))
	}
	fns := uf.FunctionNames()
	for _, m := range pre.reports {
		rep := make(map[string][][]Report, len(m.names))
		for _, name := range m.names {
			fc := pre.cells[sort.SearchStrings(fns, name)]
			stripped := make([][]Report, len(fc))
			for ci, cell := range fc {
				stripped[ci] = stripWitnessBlocks(cell)
			}
			rep[name] = stripped
		}
		_ = cache.PutValue(m.key, rep, encodeReportsEntry(rep))
	}
	_ = cache.Flush()
	ssp.End()
	return ent, nil
}
