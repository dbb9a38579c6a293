package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cast"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/facts"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/refsim"
	"repro/internal/semantics"
)

// Checker is one anti-pattern detector, written as a query over the shared
// facts layer. Function-scoped checkers receive one function's immutable
// FunctionFacts at a time; unit-scoped checkers (P6) receive the whole unit
// via CheckUnit and return nil from Check.
//
// Checkers that own only part of a diagnosis emit candidates tagged with a
// DeferralReason instead of skipping them inline — the engine's precedence
// table (precedence.go) drops deferred candidates after collection.
//
// Every report names, as its File, the file that defines the function it
// is about (for a unit-scoped checker, the function whose facts it found
// the bug in): the engine finalizes file by file (see Engine.finish).
type Checker interface {
	ID() Pattern
	Check(ff *facts.FunctionFacts) []Report
}

// UnitChecker is implemented by checkers that need whole-unit context. It
// declares its read set: Inputs names, from the exchange alone, the
// functions whose facts CheckUnit may read, so a process that holds only
// some of the corpus's files knows which facts to hand on.
type UnitChecker interface {
	Inputs(db *apidb.DB, d *cpg.Decls) []string
	CheckUnit(v *UnitView) []Report
}

// UnitView is what unit-scoped checkers read: the post-exchange DB, the
// declaration table, and the facts of the functions their Inputs named
// (Facts returns nil for a prototype or an undeclared name).
type UnitView struct {
	DB    *apidb.DB
	Decls *cpg.Decls
	Facts func(name string) *facts.Data
}

// SmartLoop reports whether the event was injected by a registered
// smartloop macro (see facts.FunctionFacts.SmartLoop).
func (v *UnitView) SmartLoop(ev *semantics.Event) bool {
	return ev.FromMacro != "" && v.DB.Loop(ev.FromMacro) != nil
}

// Engine runs a checker suite over units. Engines are built from the pass
// registry — NewEngine (all registered checkers) or NewEngineFor (a subset)
// in registry.go.
type Engine struct {
	Checkers []Checker
	// Workers bounds the per-function checking concurrency: 0 means
	// GOMAXPROCS, 1 forces sequential checking. The checkers are stateless
	// and the unit is read-only during checking, so the function work queue
	// fans out safely; per-worker report buffers are merged in the
	// sequential (checker-major, function-name) order before finalize, so
	// the report list is byte-identical at any worker count.
	Workers int
	// Obs, when non-nil, is the parent span the engine hangs per-function
	// "fn" spans and checker counters off (checker.functions — the
	// functions actually checked, not those served from report entries —
	// reports.total, reports.<pattern>, deferrals.<pattern>.<reason>). Nil
	// disables at effectively zero cost; reports are byte-identical either
	// way.
	Obs *obs.Span
}

// CheckUnit computes the unit's facts and runs every checker over them; see
// CheckUnitFacts for the engine proper.
func (e *Engine) CheckUnit(u *cpg.Unit) []Report {
	return e.CheckUnitFacts(facts.NewUnit(u))
}

// CheckUnitFacts runs every checker over the shared facts layer and returns
// deduplicated, position-sorted reports. Each function's facts are computed
// exactly once (UnitFacts memoizes under sync.Once) no matter how many
// checkers or workers consume them. After collection the engine applies the
// deferral table, then cross-pattern rank suppression: P1 (deviation) beats
// P5/P4 on the same (function, object), and P4 beats P5.
func (e *Engine) CheckUnitFacts(uf *facts.UnitFacts) []Report {
	cells := e.checkFunctions(context.Background(), uf, nil)
	u := uf.Unit
	units := e.runUnit(&UnitView{DB: u.DB, Decls: u.Decls, Facts: func(name string) *facts.Data {
		if ff := uf.Function(name); ff != nil {
			return ff.Data
		}
		return nil
	}}, false)
	out, _, _ := e.finish(nil, cells, units, nil)
	return out
}

// unitInputs lists the names in the unit-scoped checkers' read sets; a name
// may repeat.
func (e *Engine) unitInputs(db *apidb.DB, d *cpg.Decls) []string {
	var names []string
	for _, c := range e.Checkers {
		if uc, ok := c.(UnitChecker); ok {
			names = append(names, uc.Inputs(db, d)...)
		}
	}
	return names
}

// checkFunctions runs the function-scoped checkers. Its unit of work is one
// function's cells: cells[fi][ci] holds function-scoped checker ci's raw
// reports (before deferral, deduplication and sorting) for function fi of
// uf.FunctionNames(). cells may arrive partly filled — by the per-file
// report entries (see preloadFiles), whose cell contents are shared and
// never written — and the checkers run only over the functions whose slot
// is nil, filling it in place (nil cells means none is filled). It returns
// the cells; a slot still nil marks a function skipped by cancellation.
func (e *Engine) checkFunctions(ctx context.Context, uf *facts.UnitFacts, cells [][][]Report) [][][]Report {
	// Defined functions in name order — the unit of work.
	fns := uf.FunctionNames()
	if cells == nil {
		cells = make([][][]Report, len(fns))
	}
	var todo []int
	for fi, c := range cells {
		if c == nil {
			todo = append(todo, fi)
		}
	}

	// Each function still to check owns one window of a shared backing
	// array, and exactly one worker writes it, so the windows never
	// overlap.
	nc := len(e.Checkers)
	cellBacking := make([][]Report, len(todo)*nc)
	checkFn := func(ti int) {
		fi := todo[ti]
		ff := uf.Function(fns[fi])
		cell := cellBacking[ti*nc : (ti+1)*nc : (ti+1)*nc]
		found := 0
		for ci, c := range e.Checkers {
			if _, unit := c.(UnitChecker); unit {
				continue
			}
			cell[ci] = c.Check(ff)
			found += len(cell[ci])
		}
		cells[fi] = cell
		// Only candidate-bearing functions get a span: at thousands of
		// functions per unit, the all-functions span list dominated trace
		// memory (several allocations apiece) while carrying no signal.
		if found > 0 {
			e.Obs.Child("fn").Str("name", fns[fi]).Int("candidates", found).End()
		}
	}
	par.ForEach(ctx, e.Workers, len(todo), checkFn)

	if reg := e.Obs.Reg(); reg != nil {
		checked := 0
		for _, fi := range todo {
			if cells[fi] != nil {
				checked++
			}
		}
		reg.Add("checker.functions", int64(checked))
	}
	return cells
}

// unitReports is what the unit-scoped checkers reported over one unit:
// their candidates per checker in the order they came, and the same
// grouped by the file each names, one cell per engine checker (nil but at
// the unit-scoped checkers' positions), with a fingerprint of each file's
// cells when the run keeps per-file lists (see Engine.finish).
type unitReports struct {
	key    string // what the exchange memo keyed the reports on ("" when not kept)
	all    [][]Report
	byFile map[string][][]Report
	fp     map[string]string
}

// runUnit runs the unit-scoped checkers (P6) over v on the coordinating
// goroutine, each under a "pass" span. With withFP it fingerprints each
// file's cells, which per-file lists reused across runs are keyed on.
func (e *Engine) runUnit(v *UnitView, withFP bool) *unitReports {
	ur := &unitReports{all: make([][]Report, len(e.Checkers)), byFile: map[string][][]Report{}}
	for ci, c := range e.Checkers {
		uc, ok := c.(UnitChecker)
		if !ok {
			continue
		}
		sp := e.Obs.Child("pass").Str("pattern", string(c.ID()))
		found := uc.CheckUnit(v)
		sp.Int("candidates", len(found)).End()
		ur.all[ci] = found
		for _, r := range found {
			row := ur.byFile[r.File]
			if row == nil {
				row = make([][]Report, len(e.Checkers))
				ur.byFile[r.File] = row
			}
			row[ci] = append(row[ci], r)
		}
	}
	if withFP {
		ur.fp = make(map[string]string, len(ur.byFile))
		for file, row := range ur.byFile {
			ur.fp[file] = cellsFP(row)
		}
	}
	return ur
}

// segment is one file's finalized report list, its share of a run's
// output (in path order, finish returns every file's), with what it was
// derived from: the file's defined functions and
// the fingerprint of the unit-scoped reports it received ("" for none).
// Its report entry keeps the latest one (reportsEntry.fin), so a run whose
// inputs for the file are unchanged reuses it. Witness blocks are
// stripped, and everything in it is immutable once published.
type segment struct {
	path    string
	names   []string
	unit    string
	reports []Report
	key     string // the segment's cache key; "" when it has none
	size    int64  // its encoded size, the unit entry's charge for it
}

// newSegment is a segment that finish derived this run, with its encoding
// when it is to be stored.
type newSegment struct {
	*segment
	enc []byte
}

// finish turns the whole unit's cells — aligned with ix.Names, from one
// process or many — and the unit-scoped checkers' reports into the report
// list, one file at a time. A file's candidates are its functions' cells
// and the unit-scoped reports that name it, merged in checker-major,
// function-name order — the order the sequential loop produced, so
// duplicate survival and tie-breaks match byte for byte — and the
// deferral table and finalize run over them. Every report names the file
// that defines its function (for P6, the acquiring function), and
// finalize's keys and sort are file-major, so the path-ordered
// concatenation of the files' lists equals one finalize over the whole
// unit. A nil ix finishes the whole unit as one list: the same output,
// for a run that has no file's list to reuse.
//
// With fe (an in-process run over the whole unit, under a cache) a file
// whose report entry already holds a list finalized from the same
// functions and the same unit-scoped reports reuses it. Every other file
// is finalized (finish.files.refinalized counts the files a per-file
// finish finalizes) and its list stored in its report entry; one that has
// a key and is not empty is also returned, with its encoding, among the
// new segments. finish returns the report list and every file's segment.
func (e *Engine) finish(ix *cpg.FuncIndex, cells [][][]Report, units *unitReports, fe *fileEntries) ([]Report, []*segment, []newSegment) {
	reg := e.Obs.Reg()
	var segs []*segment
	var made []newSegment
	// one finalizes the file at path: the functions at pos (names) and the
	// unit-scoped cells uc.
	one := func(path string, pos []int, names []string, uc [][]Report, ufp string, ent *reportsEntry, key string) {
		if ent != nil {
			if s := ent.fin.Load(); s != nil && s.unit == ufp && slices.Equal(s.names, names) {
				segs = append(segs, s)
				return
			}
		}
		n := 0
		for _, rs := range uc {
			n += len(rs)
		}
		for _, p := range pos {
			for _, rs := range cells[p] {
				n += len(rs)
			}
		}
		cands := make([]Report, 0, n)
		for ci, c := range e.Checkers {
			if _, ok := c.(UnitChecker); ok {
				if uc != nil {
					cands = append(cands, uc[ci]...)
				}
				continue
			}
			for _, p := range pos {
				if cells[p] != nil {
					cands = append(cands, cells[p][ci]...)
				}
			}
		}
		s := &segment{path: path, names: names, unit: ufp,
			reports: stripBlocks(finalize(applyDeferrals(cands, reg)))}
		if ix != nil {
			reg.Add("finish.files.refinalized", 1)
		}
		segs = append(segs, s)
		if ent == nil {
			return
		}
		if key != "" && len(s.reports) > 0 {
			enc := encodeSegment(s.reports)
			s.key, s.size = segmentKey(key, ufp, names), int64(len(enc))
			made = append(made, newSegment{s, enc})
		}
		ent.fin.Store(s)
	}
	if ix != nil {
		for path := range units.byFile {
			i := sort.Search(len(ix.Files), func(i int) bool { return ix.Files[i].Path >= path })
			if i == len(ix.Files) || ix.Files[i].Path != path {
				ix = nil // a unit-scoped report on a file outside ix: finish as one list
				break
			}
		}
	}
	if ix == nil {
		all := make([]int, len(cells))
		for i := range all {
			all[i] = i
		}
		one("", all, nil, units.all, "", nil, "")
	} else {
		for fi, file := range ix.Files {
			var ent *reportsEntry
			var key string
			if fe != nil {
				ent, key = fe.ents[fi], fe.keys[fi]
			}
			one(file.Path, ix.Positions(fi), file.Names, units.byFile[file.Path], units.fp[file.Path], ent, key)
		}
	}
	var out []Report
	if len(segs) == 1 && fe == nil {
		out = segs[0].reports // no report entry keeps it, so it is the run's own
	} else {
		n := 0
		for _, s := range segs {
			n += len(s.reports)
		}
		out = make([]Report, 0, n)
		for _, s := range segs {
			out = append(out, s.reports...)
		}
	}
	if reg != nil {
		reg.Add("reports.total", int64(len(out)))
		// Counted per pattern, then added once each: a run's output is
		// thousands of reports, and a warm run derives few of them.
		byPattern := map[Pattern]int64{}
		for i := range out {
			byPattern[out[i].Pattern]++
		}
		for p, n := range byPattern {
			reg.Add("reports."+string(p), n)
		}
	}
	return out, segs, made
}

// Options configures the one-call pipeline.
type Options struct {
	// Workers is the single parallelism knob, threaded through the CPG
	// builder (file-sharded phase 1, per-function phase 3), the checker
	// engine, and — when Confirm is set — the refsim confirmation stage.
	// 0 means GOMAXPROCS; 1 forces a fully sequential run. Output is
	// byte-identical at any worker count.
	Workers int
	// Confirm replays every report's witness through refsim and sets
	// Report.Confirmed.
	Confirm bool
	// DB is the API knowledge base; nil means a fresh apidb.New().
	// Discovery extends it in place only when the run applies the exchange
	// (exchange.applied). A cached run whose file records and ConfigFP
	// match an earlier run's in this process reuses that run's exchange
	// (exchange.reused): DB is left untouched and Run.Unit.DB is the
	// memoized DB, which is shared and must not be written.
	DB *apidb.DB
	// Cache enables the incremental analysis cache (unit-level report
	// reuse, per-function facts reuse, per-file front-end reuse); nil
	// disables caching.
	Cache *analysiscache.Cache
	// ConfigFP fingerprints checker configuration that is not derivable
	// from the sources — e.g. the content of an -apidb extension file. It
	// is folded into every cache key; callers with differing configs must
	// pass differing fingerprints (or distinct cache directories).
	ConfigFP string
	// Checkers selects a subset of registered checkers by pattern ID; nil
	// or empty runs every registered checker. The selection is folded into
	// the unit-level cache key, so subset runs never poison full-run
	// entries. Unknown patterns panic — CLI callers validate user input
	// with ParsePatterns first.
	Checkers []Pattern
	// Admit, when non-nil, gates admission into the heavy compute phases:
	// Analyze acquires a slot before running the build→facts→check pipeline
	// and releases it when the pipeline (but not confirmation of a cached
	// result) finishes. Cache hits and single-flight waiters never touch the
	// gate — only real computations consume capacity, which is what lets a
	// serving layer bound concurrent pipelines while hits stay unqueued.
	// An Acquire error aborts the run and is returned from Analyze verbatim.
	Admit Admission
}

// Admission is the request-admission hook a serving layer plugs into
// Options.Admit: Acquire blocks until a compute slot is free (honoring ctx)
// or fails fast — e.g. with a sentinel the server maps to backpressure.
// The returned release must be called exactly once when the admitted
// computation ends.
type Admission interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// newHeaderProvider wraps a header map in the suffix-indexed provider so
// kernel-style <linux/of.h> resolution costs one map probe per #include.
func newHeaderProvider(headers map[string]string) cpp.FileProvider {
	return cpp.NewIndexedFiles(headers)
}

// ConfirmReports replays each report's witness through the refsim oracle in
// a batch (each replay is independent, so they fan out across workers) and
// sets Report.Confirmed in place. It returns the number confirmed. Verdicts
// are a pure function of (witness, claim), so the worker count cannot change
// the outcome.
func ConfirmReports(reports []Report, workers int) int {
	return ConfirmReportsSpan(reports, workers, nil)
}

// ConfirmReportsSpan is ConfirmReports under an observability span: when
// parent is non-nil the replay batch appears as a "refsim" child span and
// counts refsim.replays / refsim.confirmed into the span's registry.
func ConfirmReportsSpan(reports []Report, workers int, parent *obs.Span) int {
	jobs := make([]refsim.Job, len(reports))
	for i, r := range reports {
		jobs[i] = refsim.Job{
			Witness: r.Witness,
			Claim: refsim.Claim{
				Impact:       r.Impact.String(),
				Object:       r.Object,
				AllowEscaped: r.Pattern == P6,
			},
		}
	}
	verdicts := refsim.ReplayAll(jobs, workers, parent)
	n := 0
	for i := range reports {
		reports[i].Confirmed = verdicts[i].Confirmed
		if verdicts[i].Confirmed {
			n++
		}
	}
	return n
}

// --- shared helpers for checkers ---

// castType abbreviates cast.Type in checker signatures.
type castType = cast.Type

// isRefStructVar reports whether the named variable's declared type is a
// pointer to a refcounted structure.
func isRefStructVar(db *apidb.DB, types map[string]cast.Type, name string) bool {
	t, ok := types[name]
	if !ok || !t.IsPointer() {
		return false
	}
	s := t.StructName()
	return s != "" && db.IsRefStruct(s)
}

// sameObj compares two object keys, tolerating base-vs-full-key mismatches
// (kref_put(&d->ref) balances kref_get(&d->ref); of_node_put(np) balances
// np).
func sameObj(a, b string) bool {
	if a == "" || b == "" {
		return a == b
	}
	return a == b || semantics.BaseOf(a) == semantics.BaseOf(b)
}
