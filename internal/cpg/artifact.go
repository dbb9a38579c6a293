package cpg

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

// ArtFile is one translation unit's shard-local result: the expanded token
// stream, the macro table, preprocessor errors, and the file's discovery
// observation. It is the serializable projection of phase 1 — parse trees
// deliberately stay out (the same trade the front-end cache makes: the
// parser is cheap relative to preprocessing, and reparsing identical tokens
// yields an identical AST), so a decoded ArtFile is reparsed during
// assembly.
type ArtFile struct {
	Path   string
	Tokens []clex.Token
	Macros map[string]*cpp.Macro
	Obs    apidb.FileObs

	// file/errs are the in-memory fast path: a locally built artifact keeps
	// its AST and full error list (cpp + parse) so the single-process build
	// never reparses. After decode, file is nil and errs holds only the
	// reconstituted preprocessor errors; assembleWith reparses and appends
	// the parse errors, restoring the exact error order the monolithic build
	// produced.
	file *cast.File
	errs []error
	// cppN is how many leading errs entries are preprocessor errors — the
	// serialization split point.
	cppN int
	// fp is the file's front-end input fingerprint (Unit.SourceFP); local
	// to the building process, never serialized.
	fp string
}

// ShardArtifact is the serializable output of a shard-local pass: the files
// of the shard in sorted path order.
type ShardArtifact struct {
	Files []*ArtFile
}

// Observations projects the artifact onto its per-file discovery
// observations, in file order — the input to apidb's exchange replay.
func (a *ShardArtifact) Observations() []apidb.FileObs {
	out := make([]apidb.FileObs, len(a.Files))
	for i, af := range a.Files {
		out[i] = af.Obs
	}
	return out
}

// MergeShardArtifacts concatenates shard outputs and restores global sorted
// path order, so the merged artifact is indistinguishable from one produced
// by a single whole-corpus local pass regardless of how sources were
// partitioned. The merge is stable, though shards produced by Partition
// never overlap in paths.
func MergeShardArtifacts(arts ...*ShardArtifact) *ShardArtifact {
	m := &ShardArtifact{}
	for _, a := range arts {
		if a != nil {
			m.Files = append(m.Files, a.Files...)
		}
	}
	sort.SliceStable(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	return m
}

// BuildArtifactContext runs only the shard-local half of a build: the
// per-file front end plus discovery observation extraction. With retain set,
// each file's expanded token stream is copied into fresh storage so the
// artifact can outlive the build's pooled buffers and be serialized
// (EncodeShardArtifact requires it); without retain the artifact is only
// usable in-process, which is how BuildContext itself consumes it.
//
// The builder's DB is not consulted: a shard-local pass is DB-independent by
// design, so stateless workers need no discovery state at all.
func (b *Builder) BuildArtifactContext(ctx context.Context, sources []Source, retain bool) *ShardArtifact {
	fe := b.newFrontEnd()
	fe.retain = retain
	fe.l1hold = fe.l1hold && !retain
	return b.buildArtifact(ctx, fe, sources)
}

// Hydrate parses every wire-format file (af.file == nil) into its AST and
// releases the token stream, appending parse errors after the preprocessor
// errors exactly as assembleWith's reparse would. Calling it as each shard
// artifact arrives makes manager-side memory scale with per-shard AST size
// instead of whole-corpus retained token streams; assembly then finds
// nothing left to reparse. Files that already carry an AST only have their
// token streams dropped. workers bounds the parse parallelism (0 =
// GOMAXPROCS).
func (a *ShardArtifact) Hydrate(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var toParse []*ArtFile
	for _, af := range a.Files {
		if af.file == nil {
			toParse = append(toParse, af)
		} else {
			af.Tokens = nil
		}
	}
	if len(toParse) == 0 {
		return
	}
	stats := &arena.Stats{}
	hydrate := func(af *ArtFile) {
		file, perrs := cparse.ParseFileArena(af.Path, af.Tokens, stats)
		af.file = file
		af.errs = append(af.errs, perrs...)
		af.Tokens = nil
	}
	if workers > 1 && len(toParse) > 1 {
		var wg sync.WaitGroup
		jobs := make(chan *ArtFile)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for af := range jobs {
					hydrate(af)
				}
			}()
		}
		for _, af := range toParse {
			jobs <- af
		}
		close(jobs)
		wg.Wait()
	} else {
		for _, af := range toParse {
			hydrate(af)
		}
	}
}

// AssembleContext runs the global half of a build over a (possibly merged,
// possibly decoded) artifact: reparse wire-format files, merge declarations
// in sorted path order, apply discovery, and run per-function analysis.
//
// disc carries the result of an exchange already applied to b.DB (the
// manager path, where the same DB must then be shared with the checker
// engine); nil means no exchange has happened and the artifact's own
// observations are applied here.
func (b *Builder) AssembleContext(ctx context.Context, art *ShardArtifact, disc *apidb.Discovery) *Unit {
	return b.assembleWith(ctx, b.newFrontEnd(), art, disc)
}
