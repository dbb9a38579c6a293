package cpg

import "sort"

// FuncIndex lists defined functions — those whose winning declaration has
// a body — in the two orders the check round reads them: by name, which is
// the order of the facts layer's slots and the engine's cells, and grouped
// by defining file, which is the granularity of the per-file facts and
// report entries. It is read-only once built.
type FuncIndex struct {
	// Names holds every defined function's name, sorted.
	Names []string
	// Files groups Names by defining file, files in path order.
	Files []FileFuncs

	at  map[string]int // Names[at[name]] == name
	pos [][]int        // pos[i][k] is Files[i].Names[k]'s index in Names
}

// FileFuncs is one source file's share of a FuncIndex.
type FileFuncs struct {
	Path  string
	Names []string // sorted
}

// Lookup returns name's index in Names.
func (ix *FuncIndex) Lookup(name string) (int, bool) {
	i, ok := ix.at[name]
	return i, ok
}

// Positions returns, for file i of Files, each of its names' index in
// Names.
func (ix *FuncIndex) Positions(i int) []int { return ix.pos[i] }

// funcDef is one defined function: its name and defining file.
type funcDef struct{ name, file string }

// newFuncIndex indexes defs, whose names are distinct.
func newFuncIndex(defs []funcDef) *FuncIndex {
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	ix := &FuncIndex{Names: make([]string, len(defs)), at: make(map[string]int, len(defs))}
	for i, d := range defs {
		ix.Names[i] = d.name
		ix.at[d.name] = i
	}
	// A stable sort by file of the name-ordered positions keeps each
	// file's names sorted.
	order := make([]int, len(defs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return defs[order[a]].file < defs[order[b]].file })
	names := make([]string, len(defs))
	for k, i := range order {
		names[k] = defs[i].name
	}
	for k := 0; k < len(order); {
		file := defs[order[k]].file
		j := k + 1
		for j < len(order) && defs[order[j]].file == file {
			j++
		}
		ix.Files = append(ix.Files, FileFuncs{Path: file, Names: names[k:j:j]})
		ix.pos = append(ix.pos, order[k:j:j])
		k = j
	}
	return ix
}

// Defined indexes the table's defined functions, each under the file of
// its winning declaration. It is built on first use, so a table that is
// shared — an exchange reused across runs — is indexed once.
func (d *Decls) Defined() *FuncIndex {
	d.definedOnce.Do(func() {
		defs := make([]funcDef, 0, len(d.Funcs))
		for name, e := range d.Funcs {
			if e.Body {
				defs = append(defs, funcDef{name, e.File})
			}
		}
		d.defined = newFuncIndex(defs)
	})
	return d.defined
}

// definedCount counts the table's defined functions.
func (d *Decls) definedCount() int {
	n := 0
	for _, e := range d.Funcs {
		if e.Body {
			n++
		}
	}
	return n
}

// Defined indexes the unit's defined functions: the functions that have
// bodies (and therefore graphs and event streams, once analyzed) — the
// unit of work for the facts layer and the checker engine. Prototypes are
// excluded.
func (u *Unit) Defined() *FuncIndex {
	if u.defined != nil {
		return u.defined
	}
	return u.indexDefined() // a Unit that assembly did not build
}

// indexDefined indexes the unit's defined functions from Functions.
func (u *Unit) indexDefined() *FuncIndex {
	var defs []funcDef
	for name, fn := range u.Functions {
		if fn.env != nil {
			defs = append(defs, funcDef{name, fn.File})
		}
	}
	return newFuncIndex(defs)
}
