package apidb

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// Observation types: the serializable raw material of API discovery.
//
// Discovery (§5 of the paper, plus the §5.1.3 deviation analysis) is
// cross-file: classifying one function as a refcounting wrapper depends on
// which APIs were already known when the scan reached it, so a database is
// only right when the decisions see the whole corpus in sorted path order.
// To shard the front-end across worker processes, each worker *observes*
// its files — a pure, per-file extraction with no DB dependency — and the
// exchange replays all observations through DB.Apply in sorted path order.
// Apply is discovery's only entry point: the in-process build goes through
// the same observe→apply route as a sharded run, so both build
// byte-identical databases by construction.

// FieldObs is one struct field: its base type name and, when the type names
// a struct, that struct's name. This is all applyStructs's nesting-depth
// walk consults.
type FieldObs struct {
	Base   string
	Struct string
}

// StructObs is a named struct declaration.
type StructObs struct {
	Name   string
	Fields []FieldObs
}

// CallObs is one call expression inside a function body, in AST walk order.
// ArgBases holds, per argument, the base identifier of the member chain
// ("" when the argument has none) — exactly what wrapper classification
// matches against parameter names.
type CallObs struct {
	Callee   string
	ArgBases []string
}

// CounterOpObs is one ++/-- on a counter-named member field, in walk order.
// Base is the member chain's base identifier ("" when none).
type CounterOpObs struct {
	Base string
	Inc  bool
}

// FuncObs captures everything discovery reads out of one function
// definition. RetPointer/ReturnsNull/ErrorCode are DB-independent predicates
// precomputed at observe time; Calls/CounterOps/TailCallees are the raw
// events whose classification depends on the DB and so must be replayed.
type FuncObs struct {
	Name        string
	Params      []string
	RetPointer  bool
	ReturnsNull bool
	ErrorCode   bool
	Calls       []CallObs
	CounterOps  []CounterOpObs
	TailCallees []string
}

// LoopIdentObs is one identifier token in a loop-macro body, with whether
// the next token is `=` (the iteration-variable marker).
type LoopIdentObs struct {
	Name       string
	NextAssign bool
}

// MacroObs is one preprocessor macro. All macros are recorded by name so
// that a later non-loop redefinition correctly shadows an earlier loop macro
// under last-wins merging; Params/Idents are populated only for smartloop
// candidates (function-like macros whose body is a for(...) header).
type MacroObs struct {
	Name   string
	Loop   bool
	Params []string
	Idents []LoopIdentObs
}

// FileObs is the discovery observation for one translation unit.
type FileObs struct {
	Path    string
	Structs []StructObs
	Funcs   []FuncObs
	Macros  []MacroObs
}

// Discovery is what Apply added to the DB, one name list per stage. Only
// the lengths are rendered; the name lists feed tests.
type Discovery struct {
	Structs    []string
	APIs       []string
	Loops      []string
	Deviations []string
}

// ObserveFile extracts the discovery observation for one parsed TU. It is
// pure: no DB access, no dependence on other files, safe to run in parallel
// workers.
func ObserveFile(path string, f *cast.File, macros map[string]*cpp.Macro) FileObs {
	obs := FileObs{Path: path}
	if f != nil {
		for _, d := range f.Decls {
			switch v := d.(type) {
			case *cast.StructDecl:
				if v.Name == "" {
					continue
				}
				so := StructObs{Name: v.Name}
				if len(v.Fields) > 0 {
					so.Fields = make([]FieldObs, len(v.Fields))
					for i, fld := range v.Fields {
						so.Fields[i] = FieldObs{
							Base:   fld.Type.Base,
							Struct: fld.Type.StructName(),
						}
					}
				}
				obs.Structs = append(obs.Structs, so)
			case *cast.FuncDef:
				if v.Body == nil {
					continue
				}
				obs.Funcs = append(obs.Funcs, observeFunc(v))
			}
		}
	}
	obs.Macros = ObserveMacros(macros)
	return obs
}

func observeFunc(fd *cast.FuncDef) FuncObs {
	fo := FuncObs{
		Name:        fd.Name,
		RetPointer:  fd.Ret.IsPointer(),
		ReturnsNull: returnsNullOnSomePath(fd),
		ErrorCode:   returnsErrorCode(fd),
	}
	if len(fd.Params) > 0 {
		fo.Params = make([]string, len(fd.Params))
		for i, p := range fd.Params {
			fo.Params[i] = p.Name
		}
	}
	for _, call := range cast.Calls(fd.Body) {
		co := CallObs{Callee: call.Callee()}
		if len(call.Args) > 0 {
			co.ArgBases = make([]string, len(call.Args))
			for i, a := range call.Args {
				if b := cast.BaseIdent(a); b != nil {
					co.ArgBases[i] = b.Name
				}
			}
		}
		fo.Calls = append(fo.Calls, co)
	}
	cast.Walk(fd.Body, func(n cast.Node) bool {
		switch v := n.(type) {
		case *cast.UnaryExpr:
			if v.Op != clex.Inc && v.Op != clex.Dec {
				return true
			}
			m, ok := v.X.(*cast.MemberExpr)
			if !ok || !isCounterField(m.Name) {
				return true
			}
			op := CounterOpObs{Inc: v.Op == clex.Inc}
			if b := cast.BaseIdent(m); b != nil {
				op.Base = b.Name
			}
			fo.CounterOps = append(fo.CounterOps, op)
		case *cast.ReturnStmt:
			if v.Value == nil {
				return true
			}
			if call, ok := v.Value.(*cast.CallExpr); ok {
				fo.TailCallees = append(fo.TailCallees, call.Callee())
			}
		}
		return true
	})
	return fo
}

// ObserveMacros converts a preprocessor macro table into observations,
// sorted by name so the per-file list is deterministic.
func ObserveMacros(macros map[string]*cpp.Macro) []MacroObs {
	if len(macros) == 0 {
		return nil
	}
	names := make([]string, 0, len(macros))
	for name := range macros {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MacroObs, 0, len(names))
	for _, name := range names {
		m := macros[name]
		mo := MacroObs{Name: name}
		if m.FuncLike && m.IsLoopMacro() {
			mo.Loop = true
			mo.Params = append([]string(nil), m.Params...)
			for i, t := range m.Body {
				if t.Kind != clex.Ident {
					continue
				}
				mo.Idents = append(mo.Idents, LoopIdentObs{
					Name:       t.Text,
					NextAssign: i+1 < len(m.Body) && m.Body[i+1].Kind == clex.Assign,
				})
			}
		}
		out = append(out, mo)
	}
	return out
}

// Apply replays discovery observations against the DB in the order given
// (callers pass files in sorted path order — the same order the merged unit
// presents them — so the resulting DB matches a whole-corpus scan exactly).
// The four stages run in pipeline order: structs, then API wrappers, then
// smartloops, then deviation annotation.
func (db *DB) Apply(files []FileObs) Discovery {
	return Discovery{
		Structs:    db.applyStructs(files),
		APIs:       db.applyAPIs(files),
		Loops:      db.applyLoops(mergeMacroObs(files)),
		Deviations: db.applyDeviations(files),
	}
}

// applyStructs registers refcounted structures: those containing a counter
// field directly, or containing an already-refcounted struct within
// NestingThreshold levels. It returns the names it added, sorted.
func (db *DB) applyStructs(files []FileObs) []string {
	decls := map[string]*StructObs{}
	var names []string
	for fi := range files {
		for si := range files[fi].Structs {
			so := &files[fi].Structs[si]
			if decls[so.Name] == nil {
				names = append(names, so.Name)
			}
			decls[so.Name] = so
		}
	}
	// Depth is computed against the pre-call seed set so results do not
	// depend on registration order.
	seeded := make(map[string]bool, len(db.refStructs))
	for k := range db.refStructs {
		seeded[k] = true
	}
	const inf = NestingThreshold + 100
	var depthOf func(name string, seen map[string]bool) int
	depthOf = func(name string, seen map[string]bool) int {
		if seeded[name] || counterFieldTypes[name] {
			return 0
		}
		if seen[name] {
			return inf
		}
		seen[name] = true
		defer delete(seen, name)
		sd := decls[name]
		if sd == nil {
			return inf
		}
		best := inf
		for _, fld := range sd.Fields {
			if counterFieldTypes[fld.Base] {
				return 0
			}
			if fld.Struct != "" {
				if d := depthOf(fld.Struct, seen) + 1; d < best {
					best = d
				}
			}
		}
		return best
	}
	var added []string
	for _, name := range names {
		if db.refStructs[name] {
			continue
		}
		if depthOf(name, map[string]bool{}) <= NestingThreshold {
			db.refStructs[name] = true
			added = append(added, name)
		}
	}
	sort.Strings(added)
	return added
}

// applyAPIs registers wrappers around known refcounting APIs: a function
// that (transitively, one level) calls a known inc or dec API on one of its
// parameters, or on a field of a parameter, is itself a refcounting API of
// the same direction. This is the confirmation step behind the paper's
// second-level patch filter and the "checking if the functions containing
// the structure instances and operating the refcounters" lexer parser.
// Returns the names added, in file order.
func (db *DB) applyAPIs(files []FileObs) []string {
	var added []string
	for fi := range files {
		for gi := range files[fi].Funcs {
			fn := &files[fi].Funcs[gi]
			if db.apis[fn.Name] != nil {
				continue
			}
			op, objArg, inner := db.classifyObs(fn)
			if op == OpNone {
				continue
			}
			a := &API{
				Name: fn.Name, Op: op, Class: Specific, ObjArg: objArg,
				Discovered: true, MayFree: op == OpDec,
			}
			if inner != nil {
				a.Struct = inner.Struct
			}
			// Returns-ref detection: inc API returning a pointer.
			if op == OpInc && fn.RetPointer {
				a.ReturnsRef = true
				a.ObjArg = -1
				a.Class = Embedded
				a.MayReturnNull = fn.ReturnsNull
			}
			db.apis[fn.Name] = a
			added = append(added, fn.Name)
		}
	}
	// Second pass: fill in pairs by struct + opposite op where unambiguous.
	db.inferPairs(added)
	return added
}

// classifyObs reports whether fn wraps a known refcounting API, the
// parameter index it forwards (or -1), and the wrapped entry. It replays
// classifyWrapper's decision procedure over observations.
func (db *DB) classifyObs(fn *FuncObs) (Op, int, *API) {
	paramIdx := map[string]int{}
	for i, p := range fn.Params {
		paramIdx[p] = i
	}
	// A true wrapper moves the counter in one net direction; functions that
	// both take and drop a reference on the same parameter are *users* of
	// the API, not refcounting APIs themselves.
	var incs, decs int
	objArg := -1
	var inner *API
	var op Op
	for ci := range fn.Calls {
		call := &fn.Calls[ci]
		a := db.apis[call.Callee]
		if a == nil || a.Op == OpNone {
			continue
		}
		// Which argument does the wrapped call receive?
		argPos := a.ObjArg
		if argPos < 0 || argPos >= len(call.ArgBases) {
			argPos = 0
		}
		if argPos >= len(call.ArgBases) {
			continue
		}
		base := call.ArgBases[argPos]
		if base == "" {
			continue
		}
		idx, isParam := paramIdx[base]
		if !isParam {
			continue
		}
		switch a.Op {
		case OpInc:
			incs++
		case OpDec:
			decs++
		}
		op = a.Op
		objArg = idx
		inner = a
	}
	if incs > 0 && decs > 0 {
		return OpNone, -1, nil // balanced: a user, not a wrapper
	}
	if op != OpNone {
		return op, objArg, inner
	}
	objArg = -1
	// Direct counter manipulation: ++/-- on a member chain ending in a
	// counter-ish field of a parameter. Last parameter-based op wins,
	// matching the AST walk.
	var found Op
	for _, c := range fn.CounterOps {
		if c.Base == "" {
			continue
		}
		if idx, isParam := paramIdx[c.Base]; isParam {
			if c.Inc {
				found = OpInc
			} else {
				found = OpDec
			}
			objArg = idx
		}
	}
	return found, objArg, nil
}

// mergeMacroObs merges per-file macro observations last-wins in file order,
// mirroring how the unit build merges per-TU macro tables, and returns them
// sorted by name.
func mergeMacroObs(files []FileObs) []MacroObs {
	merged := map[string]*MacroObs{}
	var names []string
	for fi := range files {
		for mi := range files[fi].Macros {
			mo := &files[fi].Macros[mi]
			if merged[mo.Name] == nil {
				names = append(names, mo.Name)
			}
			merged[mo.Name] = mo
		}
	}
	sort.Strings(names)
	out := make([]MacroObs, 0, len(names))
	for _, n := range names {
		out = append(out, *merged[n])
	}
	return out
}

// applyLoops registers smartloops: a function-like loop macro whose body
// calls a known embedded (returns-ref) API becomes a SmartLoop; the
// iteration variable is the macro parameter assigned in the loop header.
// Returns the names added, in name order.
func (db *DB) applyLoops(macros []MacroObs) []string {
	var added []string
	for i := range macros {
		m := &macros[i]
		if !m.Loop || db.loops[m.Name] != nil {
			continue
		}
		paramIdx := map[string]int{}
		for pi, p := range m.Params {
			paramIdx[p] = pi
		}
		var embedded *API
		iterArg := -1
		for _, id := range m.Idents {
			if a := db.apis[id.Name]; a != nil && a.Op == OpInc && a.ReturnsRef {
				embedded = a
			}
			// `param =` inside the body marks the loop variable.
			if idx, ok := paramIdx[id.Name]; ok && id.NextAssign && iterArg == -1 {
				iterArg = idx
			}
		}
		if embedded == nil || iterArg == -1 {
			continue
		}
		db.loops[m.Name] = &SmartLoop{
			Name: m.Name, IterArg: iterArg, PutAPI: embedded.Pair,
			EmbeddedAPI: embedded.Name, Discovered: true,
		}
		added = append(added, m.Name)
	}
	return added
}

// applyDeviations implements the proactive deviation detection the paper
// calls for in §5.1.3 ("Another way is to proactively detect such
// deviations, as an important future work"): it analyzes the
// *implementation* of increment APIs and flags the two deviation classes
// behind anti-patterns P1 and P2.
//
//   - IncOnError (the pm_runtime_get_sync shape, Listing 3): the function
//     increments a counter unconditionally but can still return an error
//     code, so callers must put even on failure.
//   - MayReturnNull (the mdesc_grab shape): the function returns the counted
//     pointer, and some path returns NULL.
//
// It returns the names of APIs whose entries were annotated, sorted.
func (db *DB) applyDeviations(files []FileObs) []string {
	fns := map[string]*FuncObs{}
	var names []string
	for fi := range files {
		for gi := range files[fi].Funcs {
			fn := &files[fi].Funcs[gi]
			if fns[fn.Name] == nil {
				names = append(names, fn.Name)
			}
			fns[fn.Name] = fn
		}
	}
	sort.Strings(names)
	var annotated []string
	for _, name := range names {
		fn := fns[name]
		a := db.apis[name]
		if a == nil || a.Op != OpInc {
			continue
		}
		changed := false
		if !a.IncOnError && db.incErrObs(fn, fns) {
			a.IncOnError = true
			changed = true
		}
		if !a.MayReturnNull && a.ReturnsRef && fn.ReturnsNull {
			a.MayReturnNull = true
			changed = true
		}
		if changed {
			annotated = append(annotated, name)
		}
	}
	return annotated
}

// incErrObs replays incrementsButReturnsError: the body (or a one-level
// tail-called helper) performs an increment and also returns an error code.
func (db *DB) incErrObs(fn *FuncObs, fns map[string]*FuncObs) bool {
	if fn.ErrorCode && db.bodyIncrementsObs(fn) {
		return true
	}
	for _, t := range fn.TailCallees {
		callee := fns[t]
		if callee == nil {
			continue
		}
		if db.bodyIncrementsObs(callee) && callee.ErrorCode {
			return true
		}
	}
	return false
}

// bodyIncrementsObs replays bodyIncrements: the body calls a known increment
// API (or atomic_inc) or bumps a counter field directly.
func (db *DB) bodyIncrementsObs(fn *FuncObs) bool {
	for ci := range fn.Calls {
		if a := db.apis[fn.Calls[ci].Callee]; a != nil && a.Op == OpInc {
			return true
		}
		if fn.Calls[ci].Callee == "atomic_inc" {
			return true
		}
	}
	for _, c := range fn.CounterOps {
		if c.Inc {
			return true
		}
	}
	return false
}
