package apidb

import "repro/internal/cast"

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
