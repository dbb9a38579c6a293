package core

import (
	"context"

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
	return e.finish(cells, &UnitView{DB: u.DB, Decls: u.Decls, Facts: func(name string) *facts.Data {
		if ff := uf.Function(name); ff != nil {
			return ff.Data
		}
		return nil
	}})
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

// finish turns the whole unit's cells — aligned with the defined function
// names in sorted order, from one process or many — into the report list:
// it runs the unit-scoped checkers (P6) over v on the coordinating
// goroutine, merges in checker-major, function-name order — exactly the
// order the sequential loop produced, so finalize sees an identical input
// stream (duplicate survival and tie-breaks match byte for byte) — then
// applies the deferral table and finalize.
func (e *Engine) finish(cells [][][]Report, v *UnitView) []Report {
	reg := e.Obs.Reg()
	n := 0
	for _, cell := range cells {
		for _, rs := range cell {
			n += len(rs)
		}
	}
	all := make([]Report, 0, n)
	for ci, c := range e.Checkers {
		if uc, ok := c.(UnitChecker); ok {
			sp := e.Obs.Child("pass").Str("pattern", string(c.ID()))
			found := uc.CheckUnit(v)
			sp.Int("candidates", len(found)).End()
			all = append(all, found...)
			continue
		}
		for _, cell := range cells {
			if cell != nil {
				all = append(all, cell[ci]...)
			}
		}
	}
	out := finalize(applyDeferrals(all, reg))
	if reg != nil {
		reg.Add("reports.total", int64(len(out)))
		for _, r := range out {
			reg.Add("reports."+string(r.Pattern), 1)
		}
	}
	return out
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
