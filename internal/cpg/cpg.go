// Package cpg assembles whole-translation-unit code property graphs: the
// paper's "Graph Generation" stage (§6.1, built there with JOERN).
//
// A Unit combines, for a set of C sources, the ASTs, per-function CFGs,
// semantic event streams and the corpus's declaration table (Decls) —
// everything the nine checkers query. The checkers see macros only through
// token provenance (clex.Token.Origin); the preprocessor's macro table ends
// at each file's discovery observation (apidb.ObserveFile), which is all the
// smartloop stage reads. Building a Unit also runs the "Lexer Parsing" stage:
// refcounted-structure discovery, refcounting-API wrapper discovery, and
// smartloop discovery extend the API knowledge base before events are
// extracted.
package cpg

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semantics"
)

// Function is one function definition with what its analysis needs.
type Function struct {
	Def  *cast.FuncDef
	File string

	env *analysisEnv // nil for prototypes
}

// analysisEnv is what per-function analysis needs from its unit: the event
// extractor over the unit's post-discovery DB and global names.
type analysisEnv struct {
	ext *semantics.Extractor
}

// Extract builds the function's CFG and event stream (the events' Graph)
// afresh on every call and keeps neither, so nothing CFG-sized lives past
// its one consumer, the facts layer, which memoizes per function. It
// returns nil for prototypes. Extraction reads the unit's DB when Extract
// runs, so the DB must not change its API table after assembly.
func (fn *Function) Extract() *semantics.FuncEvents {
	if fn.env == nil {
		return nil
	}
	return fn.env.ext.Extract(cfg.Build(fn.Def))
}

// Unit is the code property graph of a source tree.
type Unit struct {
	DB        *apidb.DB
	Files     []*cast.File
	Functions map[string]*Function
	// Decls is the exchange's declaration table: every function, struct
	// and global of the corpus, including those declared in files this
	// unit does not hold.
	Decls  *Decls
	Errors []error

	// Discovered names from the lexer-parsing stage (reported by tools).
	DiscoveredStructs    []string
	DiscoveredAPIs       []string
	DiscoveredLoops      []string
	DiscoveredDeviations []string

	// SourceFP maps each file path to the fingerprint of its complete
	// front-end input (see sourceFP). Only builds with a Builder.Cache
	// track include closures, so it is nil otherwise and for files that
	// arrived as decoded artifacts.
	SourceFP map[string]string

	defined *FuncIndex // see Defined; set by assembly
}

// Source is one input file.
type Source struct {
	Path    string
	Content string
	// Key, when set, is FrontKey(Path, Content): a caller that has already
	// hashed the content for a key of its own passes it, and the front end
	// does not hash the content again. Empty means the front end derives
	// it when it needs it.
	Key string
}

// Builder configures unit construction.
type Builder struct {
	// DB is extended in place by discovery; nil means a fresh apidb.New().
	DB *apidb.DB
	// Headers resolves #include; nil skips unresolvable includes. The
	// provider must be safe for concurrent reads (plain maps are: the
	// parallel front end only ever calls ReadFile).
	Headers cpp.FileProvider
	// Workers bounds the file-sharded preprocess+parse concurrency
	// (phase 1, and the reparse of decoded artifacts); 0 means GOMAXPROCS,
	// 1 forces sequential building. Results are byte-identical either way —
	// files are processed independently and merged in deterministic order.
	// Per-function analysis (phase 3) runs on demand, on whichever worker
	// first needs a function's facts.
	Workers int
	// Cache, when non-nil, persists each file's front-end record (expanded
	// tokens, preprocessor errors, discovery observation and include
	// closure) keyed by content hash, so an unchanged file skips
	// preprocessing and observation on the next build. With the cache's
	// memory tier enabled, an unchanged file's parse tree is reused as well
	// (see frontEntry); without it every entry is decoded from disk and its
	// tokens parsed again. A retaining BuildArtifactContext (artifact
	// export) does not consult the cache. Assembly, discovery replay and
	// everything downstream still run over the whole unit — they have
	// cross-file dependencies — which keeps cached and uncached builds
	// byte-identical by construction.
	Cache *analysiscache.Cache
	// Obs, when non-nil, is the parent span the build hangs its spans and
	// counters off: a child span per translation unit plus front-end
	// counters (frontend.cache.hit/miss, frontend.parse.reused, frontend.tokens,
	// frontend.macro_expansions, headercache.hit/miss, lex.tokens) and the
	// frontend.tu_ms histogram. Nil (or a span from obs.Nop()) disables all
	// of it at effectively zero cost; the Unit is byte-identical either way.
	Obs *obs.Span
}

// frontEntry is the per-file front-end cache entry: the file's record (the
// expanded tokens, preprocessor errors and discovery observation — the same
// record a shard artifact carries per file, see codec.go), plus the include
// closure that must still resolve identically for the entry to be reused.
// The observation is computed once, on the miss, from the very tokens and
// macro table the key and closure cover, so a hit never observes again and
// the macro table is never stored. Only these fields are encoded, so the
// disk tier stores tokens, never parse trees: the parser is cheap next to
// preprocessing, and reparsing cached tokens yields an identical AST
// without an AST codec.
//
// A decoded or stored entry also carries memo, the file's parse (and the
// declaration record derived from it), filled once by the first build that
// reaches the entry. An entry held by the cache's L1 is reused by every
// later build in the process — so an edit loop parses only the files it
// changed; without an L1 every hit decodes an entry of its own and parses
// it again. The memo stays in memory only. Once it is set the parse
// replaces the token stream (Tokens is nil from then on, so the tier does
// not hold both), and the entry's L1 charge grows from its encoded size by
// the parse's arena bytes.
type frontEntry struct {
	Closure   []cpp.IncludeDep
	Tokens    []clex.Token
	CppErrors []string
	Obs       apidb.FileObs

	memo *frontMemo // never encoded
}

// frontMemo is an L1 front-end entry's parse (see frontEntry). Everything
// in it is immutable once once has run.
type frontMemo struct {
	once   sync.Once
	file   *cast.File
	perrs  []error
	decls  FileDecls
	srcFP  string // the file's source fingerprint (see sourceFP)
	recFP  string // the file's record fingerprint (see recordFP)
	charge int64  // the entry's L1 charge: its encoded size, plus the parse once set

	// fns is the parse's latest function shells (see ArtFile.functions):
	// an exchange reused across builds assembles the file from the same
	// shells every time.
	fns atomic.Pointer[fileFunctions]
}

// fileFunctions is the Functions entries one file contributes to units
// assembled against one exchange: the functions whose winning declaration
// lies in the file, each the file's pick by the table's rule (the last
// declaration with a body, else the first prototype), analyzed in env.
// They are read-only once built.
type fileFunctions struct {
	env *analysisEnv
	fns []*Function
}

// frontEnd is the per-Build front-end state shared by all phase-1 workers.
type frontEnd struct {
	b     *Builder
	hc    *cpp.HeaderCache // fresh per build: headers are lexed once per Build
	cache *analysiscache.Cache
	// retain makes parseOne copy each TU's expanded token stream into fresh
	// storage (ArtFile.Tokens) so the artifact can be serialized after the
	// pooled buffers are released. The pooled per-TU buffer never escapes
	// parseOne, so a retained stream is always a copy.
	retain bool

	// stats aggregates the build's arena counters (slab and window chunks
	// in the parser, pooled token buffers here); atomic, shared by all
	// workers.
	stats *arena.Stats
	// tokPool recycles the per-TU expanded-token buffers across files of the
	// build. A buffer is borrowed in parseOne and returned when that TU's
	// arena releases — see the lifetime argument on parseOne.
	tokPool arena.Pool[clex.Token]

	// reg receives the front-end counters; nil-safe, so the uninstrumented
	// path pays only a nil check per event. Counter totals are deterministic
	// at any worker count for a given cache state: which worker processes a
	// file varies, but the set of files (and which of them hit) does not.
	reg      *obs.Registry
	lexStats clex.Stats
}

// FrontKey is the front-end cache key of one source file. The preprocessor
// runs with no predefined macros, so path and content are its whole input
// apart from the include closure, which each entry records and re-validates.
func FrontKey(path, content string) string {
	return analysiscache.KeyOf("fe-v6", path, content)
}

// closureValid reports whether every include recorded when the entry was
// cached still resolves to byte-identical content (and every miss still
// misses). Preprocessing is deterministic, so identical inputs guarantee an
// identical result.
func (fe *frontEnd) closureValid(deps []cpp.IncludeDep) bool {
	for _, d := range deps {
		var content string
		ok := false
		if fe.b.Headers != nil {
			content, ok = fe.b.Headers.ReadFile(d.Path)
		}
		if d.Hash == "" {
			if ok {
				return false
			}
			continue
		}
		if !ok || fe.hc.HashOf(d.Path, content) != d.Hash {
			return false
		}
	}
	return true
}

// sourceFP fingerprints one file's complete front-end input: its front-end
// cache key (path, content) plus the include closure the preprocessor
// resolved. Preprocessing and parsing are deterministic, so an equal
// fingerprint means an identical token stream, observation and AST — the
// per-file half of any downstream per-file cache key.
func sourceFP(feKey string, closure []cpp.IncludeDep) string {
	parts := make([]string, 0, 1+2*len(closure))
	parts = append(parts, feKey)
	for _, d := range closure {
		parts = append(parts, d.Path, d.Hash)
	}
	return analysiscache.KeyOf(parts...)
}

// preprocess runs the preprocessor for one source, emitting expanded tokens
// into buf's backing array and recording the include closure when an on-disk
// cache will store the result.
func (fe *frontEnd) preprocess(src Source, buf []clex.Token) *cpp.Result {
	pp := cpp.New(fe.b.Headers).WithHeaderCache(fe.hc).WithOutBuffer(buf)
	if fe.reg != nil {
		pp.WithLexStats(&fe.lexStats)
	}
	if fe.cache != nil {
		pp.TrackIncludes()
	}
	res := pp.Process(src.Path, src.Content)
	fe.reg.Add("frontend.tokens", int64(len(res.Tokens)))
	fe.reg.Add("frontend.macro_expansions", int64(res.Stats.Expansions))
	return res
}

// parseOne runs the per-file front end: preprocess, parse and observe (or
// reuse the cached record, which already holds the observation). It
// touches no builder-mutable state, so shards may run concurrently.
//
// Each call owns one per-TU arena. The expanded-token stream (the largest
// per-TU scratch allocation) is borrowed from the build's pool and returned
// when the arena releases at the end of the call. That is safe because
// nothing retains the stream past the parse: the parser copies Token values
// into AST nodes, and macro bodies alias the lexed *line* storage (the TU's
// Lines or the shared header cache), never the expanded stream. AST nodes
// themselves come from slabs inside the parser and are retained by the
// returned file — slab chunks are never recycled, so the release only
// touches the pooled buffer.
func (fe *frontEnd) parseOne(src Source) *ArtFile {
	a := arena.New(fe.stats)
	buf := fe.tokPool.Get(len(src.Content)/6 + 8)
	a.OnRelease(func() { fe.tokPool.Put(buf) })
	defer a.Release()

	var key string
	if fe.cache != nil {
		if key = src.Key; key == "" {
			key = FrontKey(src.Path, src.Content)
		}
		// The entry may live in the cache's L1 and be shared with every
		// later build, so it lives in fresh storage — never the pooled
		// buffer — and is treated as immutable from here.
		if v, ok := fe.cache.GetValue(key, decodeFrontValue); ok {
			ent := v.(*frontEntry)
			if fe.closureValid(ent.Closure) {
				fe.reg.Add("frontend.cache.hit", 1)
				return fe.reuse(key, src.Path, ent)
			}
		}
		fe.reg.Add("frontend.cache.miss", 1)
	}
	res := fe.preprocess(src, buf)
	buf = res.Tokens
	fp := ""
	if fe.cache != nil {
		fp = sourceFP(key, res.Includes)
	}
	af, parseBytes := fe.parse(src.Path, res.Tokens, res.Errors, fp)
	af.Obs = apidb.ObserveFile(src.Path, af.file, res.Macros)
	if fe.cache == nil {
		return af
	}
	af.recFP = recordFP(&af.Obs, &af.decls)
	ent := &frontEntry{Closure: res.Includes, Tokens: res.Tokens,
		CppErrors: make([]string, len(res.Errors)), Obs: af.Obs}
	for i, e := range res.Errors {
		ent.CppErrors[i] = e.Error()
	}
	enc := encodeFrontEntry(ent)
	// This build's parse becomes the entry's memo before the entry is
	// published, so the next build that hits it in L1 reuses the parse and
	// the pooled token buffer never escapes into the shared entry. A put
	// failure (full disk, unwritable dir) only costs the next run a
	// recompute; the current result is served from memory either way.
	ent.Tokens = nil
	m := &frontMemo{charge: int64(len(enc)) + parseBytes}
	m.once.Do(func() {
		m.file, m.perrs, m.decls, m.srcFP, m.recFP = af.file, af.errs[af.cppN:], af.decls, fp, af.recFP
	})
	ent.memo, af.memo = m, m
	_ = fe.cache.PutValue(key, ent, enc)
	fe.cache.Recharge(key, ent, m.charge)
	return af
}

// parse parses one TU's token stream into an ArtFile (its Obs left for the
// caller to set) and returns it with the parse's arena bytes.
func (fe *frontEnd) parse(path string, toks []clex.Token, cppErrs []error, fp string) (*ArtFile, int64) {
	file, perrs, n := fe.parseTokens(path, toks)
	errs := make([]error, 0, len(cppErrs)+len(perrs))
	errs = append(errs, cppErrs...)
	errs = append(errs, perrs...)
	return &ArtFile{Path: path, Tokens: fe.retainToks(toks), file: file, decls: fileDecls(file), errs: errs,
		cppN: len(cppErrs), fp: fp}, n
}

// parseTokens parses one token stream and returns the AST, the parse errors
// and the bytes of parser slabs, which are also charged to the build's
// stats.
func (fe *frontEnd) parseTokens(path string, toks []clex.Token) (*cast.File, []error, int64) {
	var st arena.Stats
	file, perrs := cparse.ParseFileArena(path, toks, &st)
	fe.stats.Bytes.Add(st.Bytes.Load())
	fe.stats.Chunks.Add(st.Chunks.Load())
	return file, perrs, st.Bytes.Load()
}

// reuse serves one TU from an L1-shared front-end entry: the first build to
// reach the entry parses its token stream into the memo, fingerprints the
// file's source and record, drops the tokens, and re-charges the entry for
// the parse; every later build reuses the memo and counts a
// frontend.parse.reused. The observation comes from the entry either way.
// Sharing is sound because nothing downstream writes an AST or an
// observation — CFG construction, event extraction, discovery replay,
// and the checkers only read them (TestAnalyzeLeavesInputsUntouched in
// internal/core pins that) — and ent.Tokens is read and cleared only inside
// the once.
func (fe *frontEnd) reuse(key, path string, ent *frontEntry) *ArtFile {
	m := ent.memo
	reused := true
	m.once.Do(func() {
		reused = false
		var parseBytes int64
		m.file, m.perrs, parseBytes = fe.parseTokens(path, ent.Tokens)
		m.decls = fileDecls(m.file)
		m.srcFP = sourceFP(key, ent.Closure)
		m.recFP = recordFP(&ent.Obs, &m.decls)
		m.charge += parseBytes
		ent.Tokens = nil
		fe.cache.Recharge(key, ent, m.charge)
	})
	if reused {
		fe.reg.Add("frontend.parse.reused", 1)
	}
	return &ArtFile{Path: path, Obs: ent.Obs, file: m.file, decls: m.decls,
		errs: append(cppErrors(ent.CppErrors), m.perrs...), cppN: len(ent.CppErrors),
		fp: m.srcFP, recFP: m.recFP, memo: m}
}

// cppErrors turns cached preprocessor error strings back into errors, in a
// slice of its own (full capacity, so appending copies).
func cppErrors(msgs []string) []error {
	errs := make([]error, len(msgs))
	for i, s := range msgs {
		errs[i] = errors.New(s)
	}
	return errs
}

// retainToks copies a token stream into fresh storage when the build runs in
// retain mode, and returns nil otherwise. The copy is never backed by the
// pooled per-TU buffer (which is recycled when the TU's arena releases) nor
// by an L1-shared cache entry (which must stay immutable), so the caller may
// keep and serialize it freely. The result is non-nil even for an empty
// stream, marking the file as export-ready.
func (fe *frontEnd) retainToks(toks []clex.Token) []clex.Token {
	if !fe.retain {
		return nil
	}
	out := make([]clex.Token, len(toks))
	copy(out, toks)
	return out
}

// Build preprocesses, parses and analyzes the sources into a Unit. Inputs
// are merged in path order so results are deterministic regardless of the
// worker count. It is the product pipeline's build run over one shard:
// BuildArtifactContext (the per-file front end plus discovery observation,
// the shard-local pass), ExchangeRecords over the artifact's records (the
// global pass: discovery replay and declaration merge) and AssembleShard's
// assembly against that exchange. Per-function analysis is not part of the
// build: Function.Analyze runs it on demand.
func (b *Builder) Build(sources []Source) *Unit {
	art := b.BuildArtifactContext(context.TODO(), sources, false)
	db := b.db()
	return b.assemble(art, ExchangeRecords(db, art.Records()), db)
}

// parseTU runs the per-file front end under a "tu" span, feeding the per-TU
// wall time into the frontend.tu_ms histogram.
func (fe *frontEnd) parseTU(src Source) *ArtFile {
	sp := fe.b.Obs.Child("tu").Str("path", src.Path)
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	af := fe.parseOne(src)
	if sp != nil {
		fe.reg.Observe("frontend.tu_ms", float64(time.Since(t0).Microseconds())/1e3)
	}
	sp.End()
	return af
}

// newFrontEnd resolves the builder's knobs into the per-build front-end
// state shared by the phase workers.
func (b *Builder) newFrontEnd() *frontEnd {
	fe := &frontEnd{b: b, hc: cpp.NewHeaderCache(), cache: b.Cache,
		reg: b.Obs.Reg(), stats: &arena.Stats{}}
	fe.tokPool.Stats = fe.stats
	return fe
}

// BuildArtifactContext runs the shard-local half of a build: preprocess +
// parse, sharded per file (each file's front end is independent), with the
// file's discovery observation extracted in the same worker pass (or served
// from the file's front-end cache entry). The artifact lists files in sorted
// path order; TUs skipped by cancellation are absent.
//
// With retain set, each file's expanded token stream is copied into fresh
// storage so the artifact can outlive the build's pooled buffers and be
// serialized (EncodeShardArtifact requires it); such a build does not
// consult the cache. Without retain the artifact
// is only usable in-process — which is how Build, core.Analyze and the
// manager's workers consume it: the files keep their ASTs (and an L1
// front-end entry's parse memo), so assembly reparses nothing and no token
// is copied; Records is what leaves the process.
//
// The builder's DB is not consulted: a shard-local pass is DB-independent by
// design, so a process needs no discovery state to run it.
func (b *Builder) BuildArtifactContext(ctx context.Context, sources []Source, retain bool) *ShardArtifact {
	fe := b.newFrontEnd()
	if retain {
		// A retained artifact needs every file's tokens, which a memoized
		// entry drops, so the build neither reads nor writes the cache.
		fe.cache = nil
		fe.retain = true
	}
	sorted := append([]Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	results := make([]*ArtFile, len(sorted))
	par.ForEach(ctx, b.Workers, len(sorted), func(i int) {
		if af := fe.parseTU(sorted[i]); af.file != nil {
			results[i] = af
		}
	})
	if reg := fe.reg; reg != nil {
		hc := fe.hc.Stats()
		reg.Add("headercache.hit", hc.Hits)
		reg.Add("headercache.miss", hc.Misses)
		reg.Add("lex.tokens", hc.TokensLexed+fe.lexStats.Tokens.Load())
		// Gauges, not counters: pool hit/miss (and therefore fresh-chunk)
		// counts depend on goroutine scheduling, and the difftest matrix
		// requires counters to be identical across worker counts.
		reg.SetGauge("arena.bytes", float64(fe.stats.Bytes.Load()))
		reg.SetGauge("arena.chunks", float64(fe.stats.Chunks.Load()))
		reg.SetGauge("arena.reused", float64(fe.stats.Reused.Load()))
		reg.SetGauge("arena.released", float64(fe.stats.Released.Load()))
	}
	art := &ShardArtifact{}
	for _, af := range results {
		if af != nil {
			art.Files = append(art.Files, af)
		}
	}
	return art
}

// AssembleContext assembles a (possibly merged, possibly decoded) artifact
// against disc, the result of a discovery replay already applied to b.DB
// (see core.Exchange): it reparses wire-format files (see hydrate), merges
// the artifact's declarations and assembles the whole artifact (see
// AssembleShard). When ctx is cancelled mid-reparse, the files left
// unparsed are simply absent from the unit; callers that care check
// ctx.Err() themselves.
func (b *Builder) AssembleContext(ctx context.Context, art *ShardArtifact, disc *apidb.Discovery) *Unit {
	art.hydrate(ctx, b.Obs, b.Workers, &arena.Stats{})
	recs := art.Records()
	return b.assemble(art, &Exchange{Files: len(recs), Disc: *disc, Decls: mergeDecls(recs)}, b.db())
}

// AssembleShard assembles one process's files against the exchange x, whose
// discovery b.DB already holds: the unit gets x's declaration table, and its
// Functions map holds exactly the functions whose winning declaration (see
// Decls) lies in art's files — every function when art covers the whole
// corpus. The artifact's files must carry their ASTs (a local, non-decoded
// artifact).
func (b *Builder) AssembleShard(art *ShardArtifact, x *Exchange) *Unit {
	return b.assemble(art, x, b.db())
}

func (b *Builder) db() *apidb.DB {
	if b.DB == nil {
		return apidb.New()
	}
	return b.DB
}

// assemble merges art's files in sorted path order — errors, fingerprints,
// and the functions x assigns to them — and prepares the per-function phase.
func (b *Builder) assemble(art *ShardArtifact, x *Exchange, db *apidb.DB) *Unit {
	// Phase 3: per-function CFGs and events run on demand (Function.Analyze
	// — in practice when the facts layer first derives a function's facts),
	// so a function whose facts come from a cache is never analyzed at all.
	// The extractor captures the DB and the corpus's global names.
	env := x.env(db)
	u := &Unit{DB: db, Functions: make(map[string]*Function, len(x.Decls.Funcs)), Decls: x.Decls}
	defined := 0
	for _, af := range art.Files {
		if af.file == nil {
			continue // a TU whose reparse was skipped by cancellation
		}
		u.Errors = append(u.Errors, af.errs...)
		if af.fp != "" {
			if u.SourceFP == nil {
				u.SourceFP = make(map[string]string, len(art.Files))
			}
			u.SourceFP[af.Path] = af.fp
		}
		u.Files = append(u.Files, af.file)
		for _, fn := range af.functions(x, env) {
			u.Functions[fn.Def.Name] = fn
			if fn.env != nil {
				defined++
			}
		}
	}

	// Phase 2's lexer-parsing discovery (§6.1) — structures, wrapper APIs,
	// smartloops — ran in the exchange, before event extraction, so events
	// see the full DB.
	u.DiscoveredStructs = x.Disc.Structs
	u.DiscoveredAPIs = x.Disc.APIs
	u.DiscoveredLoops = x.Disc.Loops
	u.DiscoveredDeviations = x.Disc.Deviations
	b.Obs.Child("discovery").Int("structs", len(u.DiscoveredStructs)).
		Int("apis", len(u.DiscoveredAPIs)).
		Int("loops", len(u.DiscoveredLoops)).
		End()

	// The table's rule picked each defined function above, so the unit's
	// defined functions are among the table's: equal counts mean the unit
	// holds every file that defines one, and it shares the exchange's
	// index. A shard (or a cancelled reparse) indexes its own.
	if x.Decls.definedCount() == defined {
		u.defined = x.Decls.Defined()
	} else {
		u.defined = u.indexDefined()
	}
	return u
}

// functions returns the functions x assigns to the file, analyzed in env
// (see fileFunctions). A memoized parse keeps the latest ones, so a build
// against the exchange of an earlier build makes none.
func (af *ArtFile) functions(x *Exchange, env *analysisEnv) []*Function {
	if af.memo != nil {
		if ff := af.memo.fns.Load(); ff != nil && ff.env == env {
			return ff.fns
		}
	}
	var fns []*Function
	at := map[string]int{}
	for _, d := range af.file.Decls {
		// Within the owning file the table's rule picks the same
		// declaration: the last with a body, else the first prototype.
		fd, ok := d.(*cast.FuncDef)
		if !ok || x.Decls.Funcs[fd.Name].File != af.Path {
			continue
		}
		fn := &Function{Def: fd, File: af.Path}
		if fd.Body != nil {
			fn.env = env
		}
		if i, seen := at[fd.Name]; !seen {
			at[fd.Name] = len(fns)
			fns = append(fns, fn)
		} else if fd.Body != nil {
			fns[i] = fn
		}
	}
	if af.memo != nil {
		af.memo.fns.Store(&fileFunctions{env: env, fns: fns})
	}
	return fns
}

// FunctionNames returns defined function names in sorted order.
func (u *Unit) FunctionNames() []string {
	names := make([]string, 0, len(u.Functions))
	for n := range u.Functions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExtractEnvFP fingerprints the unit-wide state phase 3's event extraction
// reads besides a function's own definition: the DB's API table (every
// Lookup) and the global variable names (escape classification). A
// function's graph and events are a pure function of its definition and
// this fingerprint, so together with the defining file's SourceFP it keys
// anything derived from them per file.
func (u *Unit) ExtractEnvFP() string {
	parts := make([]string, 0, 1+len(u.Decls.Globals))
	parts = append(parts, u.DB.APIFingerprint())
	for name := range u.Decls.Globals {
		parts = append(parts, name)
	}
	sort.Strings(parts[1:])
	return analysiscache.KeyOf(parts...)
}
