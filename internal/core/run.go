package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// UnitSummary carries the unit-level counts tools print, decoupled from the
// Unit itself so a cache hit can report them without rebuilding the unit.
type UnitSummary struct {
	Files                int
	Functions            int
	DiscoveredStructs    int
	DiscoveredAPIs       int
	DiscoveredLoops      int
	DiscoveredDeviations int
}

// Request bundles one analysis run's inputs for Analyze.
type Request struct {
	// Sources are the translation units to analyze.
	Sources []cpg.Source
	// Headers maps include paths to content; nil skips unresolvable
	// includes.
	Headers map[string]string
	// Options carries the pipeline knobs (workers, cache, checker
	// selection, confirmation) unchanged from the historical entry points.
	Options Options
	// Trace, when non-nil, receives the run's observability data: phase
	// and per-unit spans plus the counter/histogram registry (see package
	// obs). obs.Nop() — or simply leaving it nil — disables observability
	// at effectively zero cost; reports are byte-identical either way.
	Trace *obs.Trace
}

// Run is the result of one analysis: the reports plus everything a CLI
// prints about the run. Unit is nil when the unit-level cache hit. Trace
// aliases the request's trace so callers holding only the Run can reach the
// metrics.
type Run struct {
	Unit    *cpg.Unit
	Reports []Report
	Summary UnitSummary
	Trace   *obs.Trace
}

// Metric returns a counter from the run's trace registry (0 when the run
// was untraced). It is the cache-visibility API that replaced the old
// CacheStats struct: cache.unit.hit, cache.facts.hit, frontend.cache.hit,
// frontend.cache.miss, pipeline.files_skipped, and every other counter in
// the catalog (see internal/obs).
func (r *Run) Metric(name string) int64 {
	return r.Trace.Reg().Counter(name)
}

// unitEntry is the whole-run result a unit key resolves to: the summary
// and the run's report list as its files' segments, in path order, empty
// ones left out. Reports are kept before refsim confirmation (Confirmed is
// recomputed on load — it is a pure function of the witness, so one entry
// serves both -confirm modes) and with witness CFG block pointers stripped
// (see stripBlocks). On disk it is a manifest (encodeManifest): the summary
// and each segment's key, the segments being entries of their own, so a
// run stores only the segments it finalized afresh — an edit's — plus the
// manifest, never the whole list again.
type unitEntry struct {
	Summary  UnitSummary
	Segments []*segment
}

// reports returns the entry's report list.
func (e *unitEntry) reports() []Report {
	n := 0
	for _, s := range e.Segments {
		n += len(s.reports)
	}
	out := make([]Report, 0, n)
	for _, s := range e.Segments {
		out = append(out, s.reports...)
	}
	return out
}

// charge is what the memory tier charges the entry: its manifest plus its
// segments' encodings, a stable proxy for the report lists it holds (the
// same proxy an entry that encoded the whole list would be charged).
func (e *unitEntry) charge(manifest int) int64 {
	n := int64(manifest)
	for _, s := range e.Segments {
		n += s.size
	}
	return n
}

// keyedSources returns sources sorted by path, each with its front-end key
// (cpg.FrontKey), so the unit key and the front end hash each source once.
func keyedSources(sources []cpg.Source) []cpg.Source {
	out := append([]cpg.Source(nil), sources...)
	byPath := func(i, j int) bool { return out[i].Path < out[j].Path }
	if !sort.SliceIsSorted(out, byPath) {
		sort.SliceStable(out, byPath)
	}
	for i := range out {
		out[i].Key = cpg.FrontKey(out[i].Path, out[i].Content)
	}
	return out
}

// unitCacheKey fingerprints everything that can influence the report list:
// a format version, the caller's checker-config fingerprint, the engine's
// checker selection (so -checkers subset runs never collide with full
// runs), and the full corpus content. Reports have cross-file dependencies
// — API discovery and the inter-paired checker read the whole unit — so
// the key covers every file: each source through its front-end key (which
// covers its path and every byte of its content; sources as keyedSources
// returns them), each header through its path and content.
func unitCacheKey(configFP, checkersFP string, sources []cpg.Source, headers map[string]string) string {
	hpaths := make([]string, 0, len(headers))
	for p := range headers {
		hpaths = append(hpaths, p)
	}
	sort.Strings(hpaths)
	parts := make([]string, 0, 5+len(sources)+2*len(hpaths))
	parts = append(parts, "unit-v6", configFP, checkersFP, strconv.Itoa(len(sources)))
	for _, s := range sources {
		parts = append(parts, s.Key)
	}
	parts = append(parts, strconv.Itoa(len(hpaths)))
	for _, p := range hpaths {
		parts = append(parts, p, headers[p])
	}
	return analysiscache.KeyOf(parts...)
}

// segmentKey fingerprints one file's segment: its report entry's key (the
// cells of the functions it defines), the functions it holds and the
// fingerprint of the unit-scoped reports it received.
func segmentKey(reportsKey, unitFP string, names []string) string {
	parts := make([]string, 0, 3+len(names))
	parts = append(parts, "segment-v1", reportsKey, unitFP)
	return analysiscache.KeyOf(append(parts, names...)...)
}

// factsCacheKey fingerprints one file's facts entry: the facts of the
// functions the file defines. A function's facts are a pure function of its
// definition (sourceFP: the file's content and include closure) and of the
// unit-wide extraction state (envFP: the API table after discovery and the
// global names), so an edit re-derives only the edited file's entry unless
// it changes discovery. The checker selection is deliberately absent: facts
// are checker-independent, which is exactly why a subset run can reuse the
// facts a full run computed (and vice versa) even though their unit-level
// keys differ.
func factsCacheKey(configFP, envFP, sourceFP string) string {
	return analysiscache.KeyOf("facts-v5", configFP, envFP, sourceFP)
}

// reportsCacheKey fingerprints one file's report entry: the raw checker
// cells (see Engine.check) of the functions the file defines. On top of the
// facts key's inputs — a cell is first of all a function of the function's
// facts — it names the unit-wide state the function-scoped checkers read
// beyond them (checkEnvFP) and the checker selection, whose order fixes the
// cells' layout.
func reportsCacheKey(configFP, envFP, sourceFP, checkEnv, checkersFP string) string {
	return analysiscache.KeyOf("reports-v2", configFP, envFP, sourceFP, checkEnv, checkersFP)
}

// checkEnvFP fingerprints what the function-scoped checkers read from the
// unit besides a function's facts and definition, and besides what envFP
// already covers (the API table, the global names): the smartloop table
// (FunctionFacts.SmartLoop, P3's put API), the refcounted-struct set
// (isRefStructVar, P7/P9) and the struct table's field names and struct
// types (putExprFor, P7's suggestion). DESIGN.md tabulates the read sets.
func checkEnvFP(u *cpg.Unit) string {
	loops := u.DB.Loops()
	refStructs := u.DB.RefStructs()
	structs := u.Decls.Structs
	parts := make([]string, 0, 3+5*len(loops)+len(refStructs)+2*len(structs))
	parts = append(parts, strconv.Itoa(len(loops)))
	for _, l := range loops {
		parts = append(parts, l.Name, strconv.Itoa(l.IterArg), l.PutAPI, l.EmbeddedAPI, strconv.FormatBool(l.Discovered))
	}
	parts = append(parts, strconv.Itoa(len(refStructs)))
	parts = append(parts, refStructs...)
	names := make([]string, 0, len(structs))
	for name := range structs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts = append(parts, strconv.Itoa(len(names)))
	for _, name := range names {
		fields := structs[name].Fields
		parts = append(parts, name, strconv.Itoa(len(fields)))
		for _, f := range fields {
			parts = append(parts, f.Name, f.Struct)
		}
	}
	return analysiscache.KeyOf(parts...)
}

// fileEntry is one file's facts or report entry that missed: its key, the
// functions it must cover when stored, their positions in the unit's
// defined-function order and (report entries only) the file's index in
// the unit's FuncIndex.Files.
type fileEntry struct {
	key   string
	names []string
	pos   []int
	file  int
}

// reportsEntry is one file's report entry as the memory tier holds it: the
// raw cells of the functions it defines, by name, and the file's latest
// finalized list (see Engine.finish), which a later run reuses while the
// file's functions and the unit-scoped reports it receives stay the same.
// Only the cells are encoded.
type reportsEntry struct {
	cells map[string][][]Report
	fin   atomic.Pointer[segment]
}

func decodeReportsEntry(data []byte) (any, error) {
	v, err := decodeReportsValue(data)
	if err != nil {
		return nil, err
	}
	return &reportsEntry{cells: v.(map[string][][]Report)}, nil
}

// fileEntries is what the per-file cache entries give one round 2: the
// facts and report entries that missed (stored after checking) and the
// report hits' cells, aligned with UnitFacts.FunctionNames (nil for
// functions still to check; Engine.checkFunctions fills those in). ents
// and keys, aligned with the unit's FuncIndex.Files, hold each file's
// report entry and its key (nil and "" for a file the build could not
// fingerprint); a missed entry is filled in when it is stored.
type fileEntries struct {
	facts, reports []fileEntry
	cells          [][][]Report
	ents           []*reportsEntry
	keys           []string
}

// preloadFiles looks up the report entry of every file that defines
// functions and collects the cells of those that hit, counting each file
// as cache.reports.hit/miss. It consults a file's facts entry only where
// the file's facts will be read: its report entry missed (the checkers run
// over its functions), or it defines an input of a unit-scoped checker
// (ins). A consulted facts entry seeds uf and counts as cache.facts.hit or
// cache.facts.miss. A file the build could not fingerprint (no SourceFP) is
// neither looked up nor stored. The key components that are the same for
// every file come from the exchange's memo m.
func preloadFiles(cache *analysiscache.Cache, configFP string, engine *Engine, m *exchangeMemo, ins *unitInputs,
	u *cpg.Unit, uf *facts.UnitFacts, reg *obs.Registry) fileEntries {
	env, checkEnv := m.fingerprints(u, reg)
	checkersFP := engine.patternsFP()
	ix := uf.Index()
	out := fileEntries{cells: make([][][]Report, len(ix.Names)),
		ents: make([]*reportsEntry, len(ix.Files)), keys: make([]string, len(ix.Files))}
	for fi, f := range ix.Files {
		src := u.SourceFP[f.Path]
		if src == "" {
			continue
		}
		pos := ix.Positions(fi)
		key := reportsCacheKey(configFP, env, src, checkEnv, checkersFP)
		out.keys[fi] = key
		if v, ok := cache.GetValue(key, decodeReportsEntry); ok && covers(v.(*reportsEntry).cells, f.Names, len(engine.Checkers)) {
			reg.Add("cache.reports.hit", 1)
			ent := v.(*reportsEntry)
			out.ents[fi] = ent
			for k, name := range f.Names {
				out.cells[pos[k]] = ent.cells[name]
			}
			if !ins.files[f.Path] {
				continue
			}
		} else {
			reg.Add("cache.reports.miss", 1)
			out.reports = append(out.reports, fileEntry{key: key, names: f.Names, pos: pos, file: fi})
		}
		key = factsCacheKey(configFP, env, src)
		// The snapshot may be L1-shared across runs; Preload only reads it,
		// and checkers treat facts as immutable.
		if v, ok := cache.GetValue(key, decodeFactsValue); ok && uf.Preload(f.Names, v.(map[string]*facts.Data)) {
			reg.Add("cache.facts.hit", 1)
		} else {
			reg.Add("cache.facts.miss", 1)
			out.facts = append(out.facts, fileEntry{key: key, names: f.Names})
		}
	}
	return out
}

// covers reports whether a report entry holds a full cell set for every
// named function.
func covers(ent map[string][][]Report, names []string, nc int) bool {
	for _, name := range names {
		if len(ent[name]) != nc {
			return false
		}
	}
	return true
}

// stripBlocks clears each witness event's CFG block pointer in reports,
// copying the witness of a report that has any, and returns reports.
// Blocks form cycles (Succs/Preds) that no flat encoding can represent —
// the report codec simply never writes them — and nothing downstream of
// finalize reads them: refsim replays on Op/Obj/API/Info, patch generation
// on Pos, so cached reports round-trip to the same rendered output. The
// facts layer already strips blocks from its normalized traces, so a
// witness without a block is shared rather than copied (nothing writes
// witness events); this remains as a guard for checkers that attach events
// from elsewhere.
func stripBlocks(reports []Report) []Report {
	for i := range reports {
		if !hasBlock(reports[i].Witness) {
			continue
		}
		w := append([]semantics.Event(nil), reports[i].Witness...)
		for j := range w {
			w[j].Block = nil
		}
		reports[i].Witness = w
	}
	return reports
}

// admit acquires a compute slot from the options' admission gate; with no
// gate configured it admits immediately with a no-op release.
func admit(ctx context.Context, opt Options) (func(), error) {
	if opt.Admit == nil {
		return func() {}, nil
	}
	return opt.Admit.Acquire(ctx)
}

// summarize reads the run's counts from the exchange: every file, every
// declared function (prototypes included), and the discovery result.
func summarize(x *cpg.Exchange) UnitSummary {
	return UnitSummary{
		Files:                x.Files,
		Functions:            len(x.Decls.Funcs),
		DiscoveredStructs:    len(x.Disc.Structs),
		DiscoveredAPIs:       len(x.Disc.APIs),
		DiscoveredLoops:      len(x.Disc.Loops),
		DiscoveredDeviations: len(x.Disc.Deviations),
	}
}

// lookupUnit consults the tiered cache for a unit entry. The memory tier
// serves the decoded entry; the disk tier holds its manifest, which names
// the segments to read (see unitEntry). A segment that cannot be read
// makes the entry a miss. The value may live in the cache's L1 and be
// shared with concurrent runs, so callers must copy before mutating
// (serveCached does).
func lookupUnit(cache *analysiscache.Cache, key string) (*unitEntry, bool) {
	manifest := 0
	v, ok := cache.GetValue(key, func(data []byte) (any, error) {
		ent, keys, err := decodeManifest(data)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			s, ok := cache.GetValue(k, decodeSegmentValue)
			if !ok {
				return nil, errMissingSegment
			}
			ent.Segments = append(ent.Segments, s.(*segment))
		}
		manifest = len(data)
		return ent, nil
	})
	if !ok {
		return nil, false
	}
	ent := v.(*unitEntry)
	if manifest > 0 {
		// Decoded just now, so charged its manifest alone: charge it for
		// the report lists it holds.
		cache.Recharge(key, ent, ent.charge(manifest))
	}
	return ent, true
}

var errMissingSegment = errors.New("core: a unit entry's segment is missing")

// hasBlock reports whether any event still carries a CFG block pointer.
func hasBlock(evs []semantics.Event) bool {
	for i := range evs {
		if evs[i].Block != nil {
			return true
		}
	}
	return false
}

func decodeFactsValue(data []byte) (any, error) {
	snap, err := facts.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// serveCached fills run from a cached (or flight-shared) unit entry. The
// report slice is copied because confirmation writes Confirmed per report
// while the entry stays shared via L1; the witnesses underneath are
// replayed read-only, so they can stay shared.
func serveCached(run *Run, ent *unitEntry, req Request, reg *obs.Registry) {
	reg.Add("pipeline.files_skipped", int64(len(req.Sources)))
	run.Reports = ent.reports()
	run.Summary = ent.Summary
	confirm(run, req.Options)
}

// confirm replays the run's reports through refsim under a phase:confirm
// span when the options ask for confirmation.
func confirm(run *Run, opt Options) {
	if !opt.Confirm {
		return
	}
	sp := run.Trace.Root().Child("phase:confirm")
	ConfirmReportsSpan(run.Reports, opt.Workers, sp)
	sp.End()
}

// compute is Analyze's pipeline: the phase API's rounds run in process
// over one shard. LocalRound covers every source and stays in memory —
// files keep their ASTs (and their L1 parse memos), so nothing is encoded
// or reparsed — then the exchange runs over its records (or an earlier
// run's identical exchange is reused, see exchangeOrReuse), CheckRound
// (as checkMemo, so it reads and fills the exchange memo's derivations)
// checks the whole unit against the exchange's DB and Finish turns its
// cells into the report list, file by file, reusing each file's list its
// report entry already holds. Finish runs unconfirmed: with a cache the
// segments it derived and the unit entry's manifest are stored, next to
// the per-file entries CheckRound queued, and a stored entry must stay
// confirmation-agnostic, so confirming is the caller's job. One Flush then
// makes the run's entries durable and visible to other processes. compute
// fills run in place, so a cancelled call still leaves the partial Run
// visible, and returns the unit entry (nil without a cache).
func compute(ctx context.Context, req Request, key string, run *Run) (*unitEntry, error) {
	art, err := LocalRound(ctx, req, req.Sources)
	if err != nil {
		return nil, err
	}
	sp := req.Trace.Root().Child("phase:exchange")
	m := exchangeOrReuse(req, art)
	sp.End()
	x := m.x
	req.Options.DB = m.db
	res, err := checkMemo(ctx, req, m, art)
	if err != nil {
		return nil, err
	}
	run.Unit = res.uf.Unit
	req.Options.Confirm = false
	fin, segs, made, err := finishFiles(ctx, req, x, []*ShardResult{res})
	if err != nil {
		return nil, err
	}
	run.Reports, run.Summary = fin.Reports, fin.Summary
	cache := req.Options.Cache
	if cache == nil {
		return nil, nil
	}
	ssp := req.Trace.Root().Child("phase:cache-store")
	ent := &unitEntry{Summary: run.Summary}
	keys := make([]string, 0, len(segs))
	for _, s := range segs {
		if len(s.reports) > 0 {
			ent.Segments = append(ent.Segments, s)
			keys = append(keys, s.key)
		}
	}
	for _, s := range made {
		_ = cache.Put(s.key, s.enc)
	}
	// A segment without a key (its file has no report entry) cannot be
	// named, so such an entry stays unstored.
	if !slices.Contains(keys, "") {
		enc := encodeManifest(ent.Summary, keys)
		_ = cache.PutValue(key, ent, enc)
		cache.Recharge(key, ent, ent.charge(len(enc)))
	}
	_ = cache.Flush()
	ssp.End()
	return ent, nil
}

// exchangeMemo is an exchange kept in the cache's memory tier: the exchange
// and the DB its discovery was applied to, plus what the check round
// derives from the two alone (see fingerprints and unitInputs), derived on
// first use. All of it is read-only once built — assembly, extraction and
// the checkers only read the DB, and the declaration table is read-only —
// so every run that reuses the memo shares it, derivations included.
type exchangeMemo struct {
	x  *cpg.Exchange
	db *apidb.DB

	fpOnce        sync.Once
	env, checkEnv string // see fingerprints

	mu     sync.Mutex
	inputs map[string]*unitInputs  // by Engine.patternsFP
	units  map[string]*unitReports // by Engine.patternsFP: the latest (see unitReports)
}

// unitInputs is the unit-scoped checkers' read set under one checker
// selection: the names their Inputs list (a name may repeat) and the files
// that define those names, as a set and in path order.
type unitInputs struct {
	names []string
	files map[string]bool
	paths []string
}

// fingerprints returns the exchange's two per-file key components: the
// extraction environment (cpg.Unit.ExtractEnvFP) and the check environment
// (checkEnvFP). u is a unit assembled against the memo's exchange and DB.
// The first caller derives them and counts exchange.derived.
func (m *exchangeMemo) fingerprints(u *cpg.Unit, reg *obs.Registry) (env, checkEnv string) {
	m.fpOnce.Do(func() {
		m.env, m.checkEnv = u.ExtractEnvFP(), checkEnvFP(u)
		reg.Add("exchange.derived", 1)
	})
	return m.env, m.checkEnv
}

// unitInputs returns the read set of e's unit-scoped checkers.
func (m *exchangeMemo) unitInputs(e *Engine) *unitInputs {
	fp := e.patternsFP()
	m.mu.Lock()
	defer m.mu.Unlock()
	if in := m.inputs[fp]; in != nil {
		return in
	}
	in := &unitInputs{names: e.unitInputs(m.db, m.x.Decls), files: map[string]bool{}}
	for _, name := range in.names {
		if f := m.x.Decls.Funcs[name]; f.Body && !in.files[f.File] {
			in.files[f.File] = true
			in.paths = append(in.paths, f.File)
		}
	}
	sort.Strings(in.paths)
	if m.inputs == nil {
		m.inputs = map[string]*unitInputs{}
	}
	m.inputs[fp] = in
	return in
}

// unitReports returns what e's unit-scoped checkers report over v. They
// read the memo's exchange and DB, which are fixed, and the facts of their
// inputs, which a cached run derives from the defining files' source
// fingerprints (srcFP) under the memo's extraction environment. So
// the memo keeps each selection's latest reports keyed on those
// fingerprints, and a run whose input files are unchanged reuses them
// instead of running the checkers again. The reports carry per-file
// fingerprints (see Engine.runUnit).
func (m *exchangeMemo) unitReports(e *Engine, srcFP map[string]string, v *UnitView) *unitReports {
	ins := m.unitInputs(e)
	parts := make([]string, 0, 2*len(ins.paths))
	for _, p := range ins.paths {
		if srcFP[p] == "" {
			return e.runUnit(v, true) // an input file without a fingerprint
		}
		parts = append(parts, p, srcFP[p])
	}
	key := analysiscache.KeyOf(parts...)
	fp := e.patternsFP()
	m.mu.Lock()
	ur := m.units[fp]
	m.mu.Unlock()
	if ur != nil && ur.key == key {
		return ur
	}
	ur = e.runUnit(v, true)
	ur.key = key
	m.mu.Lock()
	if m.units == nil {
		m.units = map[string]*unitReports{}
	}
	m.units[fp] = ur
	m.mu.Unlock()
	return ur
}

// exchangeCacheKey fingerprints an exchange's complete input: the DB's
// state before the replay, which the caller's config fingerprint stands
// for (Options.ConfigFP: differing configs pass differing fingerprints),
// and the records as the exchange reads them (cpg.ShardArtifact.RecordsFP).
func exchangeCacheKey(configFP, recordsFP string) string {
	return analysiscache.KeyOf("exchange-v1", configFP, recordsFP)
}

// exchangeOrReuse runs the exchange over art's records, unless, under a
// cache, an earlier run in this process already ran it over records with
// the same fingerprints and the same config: then that run's memo — its
// exchange, its DB and what was derived from them — is reused and no
// observation is replayed (exchange.reused). Otherwise the observations
// are replayed into req.Options.DB, extending it in place (a fresh
// apidb.New() when nil), counted as exchange.applied, and the result is
// kept in the cache's memory tier for later runs. A build without a cache
// fingerprints no record and never consults the memo.
func exchangeOrReuse(req Request, art *cpg.ShardArtifact) *exchangeMemo {
	reg, cache := req.Trace.Reg(), req.Options.Cache
	var key string
	if cache != nil {
		if fp := art.RecordsFP(); fp != "" {
			key = exchangeCacheKey(req.Options.ConfigFP, fp)
			if v, ok := cache.GetValue(key, memoryOnly); ok {
				reg.Add("exchange.reused", 1)
				return v.(*exchangeMemo)
			}
		}
	}
	db := req.Options.DB
	if db == nil {
		db = apidb.New()
	}
	m := &exchangeMemo{x: cpg.ExchangeRecords(db, art.Records()), db: db}
	reg.Add("exchange.applied", 1)
	if key != "" {
		cache.PutMemory(key, m, exchangeCharge(m.x, db))
	}
	return m
}

// exchangeEntryBytes is what an exchange memo retains per table entry: a
// declaration-table name (function, struct or global) or a DB entry (API,
// smartloop, refcounted struct). A fresh apidb.New() plus ExchangeRecords
// over the seed-1 corpus grew the heap by 113, 114 and 116 bytes per entry
// at scales 1, 2 and 4 (runtime.MemStats after GC; names alias the parsed
// sources, so their bytes are the front-end entries'), and
// TestExchangeChargeMatchesHeap holds the charge to that measurement.
const exchangeEntryBytes = 116

// indexEntryBytes is what the exchange's defined-function index
// (cpg.Decls.Defined) retains per defined function: 99 bytes at scales 1,
// 2 and 4, measured the same way.
const indexEntryBytes = 99

// exchangeCharge is an exchange memo's memory-tier charge: the heap it
// retains, by exchangeEntryBytes per entry plus indexEntryBytes per
// defined function. It builds the index, which every cached check round
// reads, so the memo is charged for it from the start.
func exchangeCharge(x *cpg.Exchange, db *apidb.DB) int64 {
	n := len(x.Decls.Funcs) + len(x.Decls.Structs) + len(x.Decls.Globals) +
		len(db.APIs()) + len(db.Loops()) + len(db.RefStructs())
	return int64(n)*exchangeEntryBytes + int64(len(x.Decls.Defined().Names))*indexEntryBytes
}

// memoryOnly is the decode callback of an entry that only the memory tier
// holds (Cache.PutMemory): no payload for it is ever written, so any bytes
// found under its key are not its own.
func memoryOnly([]byte) (any, error) { return nil, errNotEncoded }

var errNotEncoded = errors.New("core: memory-only entry has no encoding")

// Analyze is the pipeline entry point: it builds a unit from the request's
// sources, checks it, and optionally confirms the reports, honoring ctx at
// every phase and work-queue boundary.
//
// The computation is the phase API run in process (see compute): one local
// round over every source, the exchange, the check round and the finish —
// the same functions internal/manager drives across processes.
//
// With no cache in the options it runs that pipeline. With a cache set
// it first consults the tiered unit-level report cache — the in-memory L1
// serves a decoded entry with no I/O at all, the disk tier decodes one pack
// payload — and an unchanged corpus skips the whole pipeline. On a miss the
// computation runs under single-flight: N concurrent Analyze calls for the
// same unit key on one cache perform one computation, the leader's stored
// entry is shared with the waiters (counted as cache.singleflight.wait, and
// served exactly like a cache hit: Unit stays nil). On a miss it also
// threads the per-file front-end cache through the local round so only
// changed files are re-preprocessed, and preloads the per-file facts and
// report entries so checking skips every file whose inputs are unchanged;
// only the missed files' entries are re-derived and stored.
// Reports are byte-identical across {no cache, cold cache, warm cache,
// L1-warm, facts-only hit, partial hit} at any worker count, with or
// without a trace attached.
//
// With Options.Admit set, every real pipeline computation — the uncached
// path and the single-flight leader — first acquires an admission slot;
// cache hits and flight waiters bypass the gate entirely. An Acquire error
// (overload, cancelled wait) aborts the run and is returned verbatim.
//
// An invalid checker selection returns an error wrapping ErrUnknownPattern.
// Cancellation drains the work queues cleanly and returns the partial Run
// alongside ctx.Err(); nothing partial is ever written to the cache, and a
// cancelled or failed single-flight leader never feeds its waiters — they
// retry leadership with their own ctx.
func Analyze(ctx context.Context, req Request) (*Run, error) {
	opt := req.Options
	engine, err := newEngine(opt)
	if err != nil {
		return nil, err
	}

	reg := req.Trace.Reg()
	cache := opt.Cache
	if cache != nil && reg != nil {
		cache = cache.WithRegistry(reg)
	}
	req.Options.Cache = cache

	run := &Run{Trace: req.Trace}
	var key string
	if cache != nil {
		sp := req.Trace.Root().Child("phase:cache-lookup")
		req.Sources = keyedSources(req.Sources)
		key = unitCacheKey(opt.ConfigFP, engine.patternsFP(), req.Sources, req.Headers)
		ent, hit := lookupUnit(cache, key)
		sp.End()
		if hit {
			reg.Add("cache.unit.hit", 1)
			serveCached(run, ent, req, reg)
			return run, ctx.Err()
		}
		reg.Add("cache.unit.miss", 1)
	}
	if err := ctx.Err(); err != nil {
		return run, err
	}

	computed := false
	lead := func() (any, error) {
		release, err := admit(ctx, opt)
		if err != nil {
			return nil, err
		}
		defer release()
		if cache != nil {
			reg.Add("cache.singleflight.leader", 1)
		}
		computed = true
		return compute(ctx, req, key, run)
	}
	var v any
	if cache == nil {
		_, err = lead()
	} else {
		v, _, err = cache.Flight(ctx, key, func() (any, error) {
			// Second-chance lookup: a leader that finished between our miss
			// and this flight already populated L1 — serve that instead of
			// leading a redundant computation.
			if ent, ok := lookupUnit(cache, key); ok {
				return ent, nil
			}
			return lead()
		})
	}
	if err != nil {
		// Either our own pipeline was cancelled — run carries the partial
		// result — or our ctx died while waiting on another leader.
		return run, err
	}
	if !computed {
		reg.Add("cache.singleflight.wait", 1)
		serveCached(run, v.(*unitEntry), req, reg)
		return run, ctx.Err()
	}
	confirm(run, opt)
	return run, ctx.Err()
}
