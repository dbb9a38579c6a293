package cpg

import (
	"context"
	"sort"

	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/obs"
	"repro/internal/par"
)

// ArtFile is one translation unit's shard-local result: the expanded token
// stream, preprocessor errors, and the file's discovery observation — the
// per-file record the front-end cache entry carries too (see codec.go). It
// is the serializable projection of phase 1 — parse trees
// deliberately stay out (the same trade the front-end cache makes: the
// parser is cheap relative to preprocessing, and reparsing identical tokens
// yields an identical AST), so a decoded ArtFile is reparsed during
// assembly.
type ArtFile struct {
	Path   string
	Tokens []clex.Token
	Obs    apidb.FileObs

	// file/errs are the in-memory fast path: a locally built artifact keeps
	// its AST and full error list (cpp + parse) so the single-process build
	// never reparses. After decode, file is nil and errs holds only the
	// reconstituted preprocessor errors; hydrate reparses and appends the
	// parse errors, restoring the error order of an in-process build.
	file  *cast.File
	decls FileDecls // the file's declaration record, derived with file
	errs  []error
	// cppN is how many leading errs entries are preprocessor errors — the
	// serialization split point.
	cppN int
	// fp is the file's front-end input fingerprint (Unit.SourceFP); local
	// to the building process, never serialized.
	fp string
	// recFP is the file's record fingerprint (see recordFP), computed once
	// per front-end cache entry; "" when the build had no cache.
	recFP string
	// memo is the front-end entry's parse memo the file came from; nil
	// when the build had no cache.
	memo *frontMemo
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

// Hydrate runs assembly's reparse (see hydrate) ahead of assembly: every
// wire-format file gets its AST and every token stream is dropped. Calling
// it as each shard artifact arrives makes manager-side memory scale with
// per-shard AST size instead of whole-corpus retained token streams;
// assembly then finds nothing left to reparse. workers bounds the parse
// parallelism (0 = GOMAXPROCS).
func (a *ShardArtifact) Hydrate(workers int) {
	a.hydrate(context.TODO(), nil, workers, &arena.Stats{})
}

// hydrate is the one reparse of artifact files: every file without an AST
// (af.file == nil) is parsed from its token stream, file-sharded over
// workers, and its parse errors are appended after its preprocessor errors,
// restoring the error order of an in-process build. Every file's token
// stream is dropped — the AST replaces it, which keeps peak memory
// per-TU-streaming rather than whole-corpus (the tokens of a large corpus
// dwarf its ASTs). The reparse hangs a "reparse" span off parent and
// charges its parser slabs to stats; a file skipped by cancellation keeps
// a nil AST.
func (a *ShardArtifact) hydrate(ctx context.Context, parent *obs.Span, workers int, stats *arena.Stats) {
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
	sp := parent.Child("reparse").Int("files", len(toParse))
	par.ForEach(ctx, workers, len(toParse), func(i int) {
		af := toParse[i]
		file, perrs := cparse.ParseFileArena(af.Path, af.Tokens, stats)
		af.file, af.decls = file, fileDecls(file)
		af.errs = append(af.errs, perrs...)
		af.Tokens = nil
	})
	sp.End()
}
