package apidb

import (
	"repro/internal/cast"
	"repro/internal/cpp"
)

// counterFieldTypes are the base types whose presence makes a structure
// refcounted.
var counterFieldTypes = map[string]bool{
	"refcount_t": true, "atomic_t": true, "kref": true, "kobject": true,
}

// NestingThreshold bounds how deep struct containment is followed when
// classifying refcounted structures (§6.1: "the structure parser relies on a
// threshold to control the parsing levels as a refcounted object can be used
// in another structures, which can be nested defined").
const NestingThreshold = 3

// The Discover* entry points below are AST-facing conveniences: they extract
// per-file observations (ObserveFile) and replay them through the same
// deterministic apply stages the distributed exchange uses, so a whole-corpus
// in-process scan and a shard-merged scan produce identical databases by
// construction. See observe.go for the observation schema and the apply
// stages themselves.

// DiscoverStructs scans struct declarations and registers refcounted
// structures: those containing a counter field directly, or containing an
// already-refcounted struct within NestingThreshold levels. It returns the
// names it added, sorted.
func (db *DB) DiscoverStructs(files []*cast.File) []string {
	return db.applyStructs(observeDecls(files))
}

// DiscoverAPIs scans function definitions and registers wrappers around
// known refcounting APIs: a function that (transitively, one level) calls a
// known inc or dec API on one of its parameters, or on a field of a
// parameter, is itself a refcounting API of the same direction. This is the
// confirmation step behind the paper's second-level patch filter and the
// "checking if the functions containing the structure instances and
// operating the refcounters" lexer parser. Returns the names added, in scan
// order.
func (db *DB) DiscoverAPIs(files []*cast.File) []string {
	return db.applyAPIs(observeDecls(files))
}

// DiscoverLoops registers smartloops from a preprocessor macro table: a
// function-like loop macro whose body calls a known embedded (returns-ref)
// API becomes a SmartLoop; the iteration variable is the macro parameter
// assigned in the loop header. Returns the names added, sorted.
func (db *DB) DiscoverLoops(macros map[string]*cpp.Macro) []string {
	return db.applyLoops(ObserveMacros(macros))
}

// observeDecls extracts declaration observations (structs and functions)
// from parsed files, preserving file order. Macro tables are handled
// separately by DiscoverLoops, so they are not observed here.
func observeDecls(files []*cast.File) []FileObs {
	out := make([]FileObs, 0, len(files))
	for _, f := range files {
		if f == nil {
			continue
		}
		out = append(out, ObserveFile(f.Name, f, nil))
	}
	return out
}

func isCounterField(name string) bool {
	switch name {
	case "refcount", "refcnt", "ref", "count", "usage", "users", "kref":
		return true
	}
	return false
}

// returnsNullOnSomePath reports whether any return statement yields NULL/0
// for a pointer-returning function.
func returnsNullOnSomePath(fd *cast.FuncDef) bool {
	var sawNull bool
	cast.Walk(fd.Body, func(n cast.Node) bool {
		if r, ok := n.(*cast.ReturnStmt); ok && r.Value != nil {
			switch v := r.Value.(type) {
			case *cast.Lit:
				if v.Text == "0" {
					sawNull = true
				}
			case *cast.Ident:
				if v.Name == "NULL" {
					sawNull = true
				}
			}
		}
		return true
	})
	return sawNull
}

// inferPairs links newly discovered APIs with opposite-direction entries on
// the same struct when the match is unambiguous. Candidates are indexed by
// struct once up front (pairing only writes Pair, never the Struct or Op
// the index is built on), so the pass is linear in the table rather than
// one full-table scan per discovered name.
func (db *DB) inferPairs(names []string) {
	byStruct := map[string][]*API{}
	for _, b := range db.apis {
		if b.Struct != "" && b.Op != OpNone {
			byStruct[b.Struct] = append(byStruct[b.Struct], b)
		}
	}
	for _, n := range names {
		a := db.apis[n]
		if a.Pair != "" || a.Struct == "" {
			continue
		}
		var match *API
		count := 0
		for _, b := range byStruct[a.Struct] {
			if b.Op != a.Op {
				match = b
				count++
			}
		}
		if count == 1 {
			a.Pair = match.Name
			if match.Pair == "" {
				match.Pair = a.Name
			}
		}
	}
}
