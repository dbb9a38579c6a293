// Package facts is the shared analysis-facts layer between the code property
// graph and the anti-pattern checkers.
//
// The nine checkers in internal/core all consume the same underlying facts —
// per-function refcount event traces, acyclic path enumerations, escape/store
// sets, and apidb classifications of call sites — but historically each
// re-derived them with a private CPG walk. This package computes them exactly
// once per function (UnitFacts memoizes with sync.Once, so the parallel
// engine gets exactly-once semantics at any worker count) and hands the same
// immutable FunctionFacts value to every checker.
//
// The serializable portion (Data) is fully self-contained: CFG block pointers
// are stripped, branch directions and error-block reachability are resolved
// at compute time, so a Data round-trips through the binary codec (the
// analysiscache per-file facts entries) and reproduces byte-identical
// reports. Checkers must treat every slice and map reachable from
// FunctionFacts as read-only.
package facts

import (
	"sync"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// Branch direction of an event along one concrete path (Trace.Branch).
const (
	TookUnknown int8 = iota // path ends at the block, or no successors
	TookTrue
	TookFalse
)

// Trace is one acyclic path's normalized event stream: the path's events in
// block order with every path-dependent question — which branch was taken,
// whether error handling lies ahead — pre-resolved, so no consumer needs the
// CFG blocks themselves.
//
// A trace does not hold events: Idx indexes the function's Data.All, which
// holds each event once however many paths pass its block. Len and At read
// the path's events in order; Events copies them out (a report's witness).
type Trace struct {
	// Idx holds the index into Data.All of each of the path's events, in
	// block order. Indices, like every per-event array here, are int32
	// (bounded far below 2^31), so the codec and the in-memory footprint
	// stay small.
	Idx []int32
	// BlockAt is the path position of each event's block.
	BlockAt []int32
	// ErrFrom[k] reports whether the path visits an error-handling block
	// at or after path position k; the extra index len(path) is always
	// false, so BlockAt[i]+1 is always a valid strict-after query.
	ErrFrom []bool
	// Branch is the branch direction the path takes at each event's block
	// (meaningful for OpCond events; TookUnknown at path end).
	Branch []int8

	all []semantics.Event // the owning Data's All
}

// Len returns the number of events on the path.
func (tr *Trace) Len() int { return len(tr.Idx) }

// At returns the path's i-th event. It points into the function's Data.All,
// which every checker treats as read-only.
func (tr *Trace) At(i int) *semantics.Event { return &tr.all[tr.Idx[i]] }

// Events returns a fresh copy of the path's events: the witness of a report
// emitted on this path.
func (tr *Trace) Events() []semantics.Event {
	out := make([]semantics.Event, len(tr.Idx))
	for i, x := range tr.Idx {
		out[i] = tr.all[x]
	}
	return out
}

// ErrorAtOrAfter reports whether the path visits an error block at or after
// event i's block (inclusive).
func (tr *Trace) ErrorAtOrAfter(i int) bool { return tr.ErrFrom[tr.BlockAt[i]] }

// ErrorAfter reports whether the path visits an error block strictly after
// event i's block.
func (tr *Trace) ErrorAfter(i int) bool { return tr.ErrFrom[tr.BlockAt[i]+1] }

// BranchNonNull returns the names known non-NULL after event i's branch on
// this path (OpCond events; nil otherwise).
func (tr *Trace) BranchNonNull(i int) []string {
	switch tr.Branch[i] {
	case TookTrue:
		return tr.At(i).NonNullTrue
	case TookFalse:
		return tr.At(i).NonNullFalse
	}
	return nil
}

// BranchNull returns the names known NULL after event i's branch on this
// path — the duality of BranchNonNull.
func (tr *Trace) BranchNull(i int) []string {
	switch tr.Branch[i] {
	case TookTrue:
		return tr.At(i).NonNullFalse
	case TookFalse:
		return tr.At(i).NonNullTrue
	}
	return nil
}

// Data is the serializable per-function fact set: everything derived from
// the function's CFG and events that checkers query, in a form that survives
// a gob round-trip through the analysis cache. Maps and slices are left nil
// when empty so computed and decoded values are indistinguishable.
type Data struct {
	// Traces enumerates the function's bounded acyclic paths
	// (cfg.Graph.Paths semantics), normalized per Trace.
	Traces []Trace
	// All is the whole-function event view in CFG block order, blocks
	// stripped — the order checkers historically built by walking
	// Graph.Blocks. Every trace indexes it.
	All []semantics.Event
	// DecIdx and EscapeIdx index All: decrement events, and escaping
	// assignments (OpAssign with EscapesVia set). int32 for the same
	// reason as Trace.Idx.
	DecIdx    []int32
	EscapeIdx []int32
	// IncBases are base names incremented anywhere in the function;
	// OwnedBases is the subset whose increment came from a returns-ref API
	// (a locally acquired reference).
	IncBases   map[string]bool
	OwnedBases map[string]bool
}

// FunctionFacts is the immutable per-function value handed to every checker:
// the serializable Data plus cheap recomputed views (declared variable types,
// parameter set) and back-references into the unit.
type FunctionFacts struct {
	Unit *cpg.Unit
	Fn   *cpg.Function
	Data *Data

	varTypesOnce sync.Once
	varTypes     map[string]cast.Type
}

// VarTypes maps local and parameter names to their declared types. The body
// walk runs on first use: only checkers with a candidate event (a free, an
// escape) ask, so most functions — and every function whose Data came from
// the cache — never pay for it.
func (ff *FunctionFacts) VarTypes() map[string]cast.Type {
	ff.varTypesOnce.Do(func() { ff.varTypes = varTypes(ff.Fn) })
	return ff.varTypes
}

// IsParam reports whether name is one of the function's parameters. The
// parameter list is a handful of entries, so a linear scan beats building a
// set per function.
func (ff *FunctionFacts) IsParam(name string) bool {
	for _, p := range ff.Fn.Def.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Traces returns the normalized path traces.
func (ff *FunctionFacts) Traces() []Trace { return ff.Data.Traces }

// All returns the whole-function event view in block order.
func (ff *FunctionFacts) All() []semantics.Event { return ff.Data.All }

// SmartLoop reports whether the event was injected by a registered smartloop
// macro (for_each_*-style iterators that hold a reference per iteration).
func (ff *FunctionFacts) SmartLoop(ev *semantics.Event) bool {
	return ev.FromMacro != "" && ff.Unit.DB.Loop(ev.FromMacro) != nil
}

// slot memoizes one function's facts; pre holds a cache-preloaded Data that
// the first Function call adopts instead of computing.
type slot struct {
	once sync.Once
	ff   *FunctionFacts
	pre  *Data
}

// UnitFacts owns the lazily computed facts of every defined function in a
// unit. It is safe for concurrent use: each function's facts are computed
// exactly once no matter how many checkers or workers ask.
type UnitFacts struct {
	Unit *cpg.Unit

	ix       *cpg.FuncIndex
	slots    []slot // aligned with ix.Names
	computes atomic.Int64
}

// NewUnit prepares (but does not compute) facts for every defined function
// of the unit's index (cpg.Unit.Defined).
func NewUnit(u *cpg.Unit) *UnitFacts {
	ix := u.Defined()
	return &UnitFacts{Unit: u, ix: ix, slots: make([]slot, len(ix.Names))}
}

// FunctionNames returns the defined (body-carrying) function names in sorted
// order — the engine's unit of work.
func (uf *UnitFacts) FunctionNames() []string { return uf.ix.Names }

// Index returns the unit's defined-function index, which FunctionNames and
// Files read.
func (uf *UnitFacts) Index() *cpg.FuncIndex { return uf.ix }

// slot returns the named defined function's slot, or nil.
func (uf *UnitFacts) slot(name string) *slot {
	if i, ok := uf.ix.Lookup(name); ok {
		return &uf.slots[i]
	}
	return nil
}

// Function returns the named function's facts, computing them on first use.
// It returns nil for prototypes and unknown names.
func (uf *UnitFacts) Function(name string) *FunctionFacts {
	s := uf.slot(name)
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		fn := uf.Unit.Functions[name]
		d := s.pre
		if d == nil {
			d = computeData(fn)
			uf.computes.Add(1)
		}
		s.ff = &FunctionFacts{Unit: uf.Unit, Fn: fn, Data: d}
	})
	return s.ff
}

// Observe records the facts layer's work into reg: facts.computed counts
// functions whose facts were derived from the CPG this run, facts.preloaded
// counts functions served from a cache snapshot. A function nobody asked
// about — one whose checker results came from a report entry — counts in
// neither. Call after checking completes; both totals are deterministic at
// any worker count because the memoization is exactly-once.
func (uf *UnitFacts) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	computed := uf.computes.Load()
	reg.Add("facts.computed", computed)
	preloaded := int64(0)
	for i := range uf.slots {
		if s := &uf.slots[i]; s.pre != nil && s.ff != nil && s.ff.Data == s.pre {
			preloaded++
		}
	}
	reg.Add("facts.preloaded", preloaded)
}

// FileFuncs is one source file's share of a unit's defined functions: the
// granularity of the analysis cache's facts entries.
type FileFuncs = cpg.FileFuncs

// Files groups the defined functions by defining file, files in path order.
// A name defined in several files belongs to the file whose definition the
// unit kept (cpg.Function.File).
func (uf *UnitFacts) Files() []FileFuncs { return uf.ix.Files }

// Preload seeds the named functions' slots from a cached snapshot when the
// snapshot covers every name, and reports whether it did; an incomplete
// snapshot seeds nothing. It must be called before checking starts; slots
// already computed keep their value.
func (uf *UnitFacts) Preload(names []string, snap map[string]*Data) bool {
	if len(names) == 0 {
		return false
	}
	for _, name := range names {
		if uf.slot(name) == nil || snap[name] == nil {
			return false
		}
	}
	for _, name := range names {
		uf.slot(name).pre = snap[name]
	}
	return true
}

// Snapshot returns every defined function's serializable facts (forcing any
// not yet computed), keyed by function name.
func (uf *UnitFacts) Snapshot() map[string]*Data { return uf.SnapshotOf(uf.ix.Names) }

// SnapshotOf is Snapshot restricted to the named defined functions — one
// file's analysiscache facts entry.
func (uf *UnitFacts) SnapshotOf(names []string) map[string]*Data {
	out := make(map[string]*Data, len(names))
	for _, name := range names {
		out[name] = uf.Function(name).Data
	}
	return out
}

// computeData derives one function's serializable facts. The trace
// flattening mirrors the engine's historical per-checker walk exactly: for
// each path, events in block order with their path positions, branch
// directions resolved against the successor actually taken, and error-block
// reachability precomputed as a suffix scan. It is the only consumer of the
// function's CFG and events, which it builds and drops: nothing derived
// from the CFG outlives the call except Data.
func computeData(fn *cpg.Function) *Data {
	fe := fn.Extract()
	d := &Data{}
	g := fe.Graph
	// All first: every block's events in block order, block b's run
	// starting at first[b.ID] (a block's ID is its index in Blocks).
	first := make([]int32, len(g.Blocks))
	total, nDec, nEsc := 0, 0, 0
	for _, b := range g.Blocks {
		first[b.ID] = int32(total)
		evs := fe.ByBlok[b]
		total += len(evs)
		for i := range evs {
			switch {
			case evs[i].Op == semantics.OpDec:
				nDec++
			case evs[i].Op == semantics.OpAssign && evs[i].EscapesVia != "":
				nEsc++
			}
		}
	}
	if nDec > 0 {
		d.DecIdx = make([]int32, 0, nDec)
	}
	if nEsc > 0 {
		d.EscapeIdx = make([]int32, 0, nEsc)
	}
	if total > 0 {
		d.All = make([]semantics.Event, 0, total)
	}
	for _, b := range g.Blocks {
		for _, ev := range fe.ByBlok[b] {
			ev.Block = nil
			i := int32(len(d.All))
			switch {
			case ev.Op == semantics.OpDec:
				d.DecIdx = append(d.DecIdx, i)
			case ev.Op == semantics.OpAssign && ev.EscapesVia != "":
				d.EscapeIdx = append(d.EscapeIdx, i)
			case ev.Op == semantics.OpInc && ev.Obj != "":
				base := semantics.BaseOf(ev.Obj)
				if d.IncBases == nil {
					d.IncBases = map[string]bool{}
				}
				d.IncBases[base] = true
				if ev.Info != nil && ev.Info.ReturnsRef {
					if d.OwnedBases == nil {
						d.OwnedBases = map[string]bool{}
					}
					d.OwnedBases[base] = true
				}
			}
			d.All = append(d.All, ev)
		}
	}

	paths := g.Paths(0)
	d.Traces = make([]Trace, 0, len(paths))
	// The traces' parallel slices are carved as capacity-bounded windows out
	// of four function-lifetime backing arrays, so the whole flattening costs
	// O(1) allocations per function rather than O(paths).
	grand, errLen := 0, 0
	for _, p := range paths {
		for _, b := range p {
			grand += len(fe.ByBlok[b])
		}
		errLen += len(p) + 1
	}
	var idxBack, atBack []int32
	var brBack []int8
	if grand > 0 {
		idxBack = make([]int32, 0, grand)
		atBack = make([]int32, 0, grand)
		brBack = make([]int8, 0, grand)
	}
	efBack := make([]bool, errLen)
	efOff := 0
	for _, p := range paths {
		tr := Trace{all: d.All}
		start := len(idxBack)
		for bi, b := range p {
			for k, ev := range fe.ByBlok[b] {
				br := TookUnknown
				if bi+1 < len(p) {
					switch semantics.BranchTaken(ev, p[bi+1]) {
					case 1:
						br = TookTrue
					case -1:
						br = TookFalse
					}
				}
				idxBack = append(idxBack, first[b.ID]+int32(k))
				atBack = append(atBack, int32(bi))
				brBack = append(brBack, br)
			}
		}
		if end := len(idxBack); end > start {
			tr.Idx = idxBack[start:end:end]
			tr.BlockAt = atBack[start:end:end]
			tr.Branch = brBack[start:end:end]
		}
		tr.ErrFrom = efBack[efOff : efOff+len(p)+1 : efOff+len(p)+1]
		efOff += len(p) + 1
		for k := len(p) - 1; k >= 0; k-- {
			tr.ErrFrom[k] = tr.ErrFrom[k+1] || p[k].IsError
		}
		d.Traces = append(d.Traces, tr)
	}
	return d
}

func varTypes(fn *cpg.Function) map[string]cast.Type {
	out := map[string]cast.Type{}
	for _, p := range fn.Def.Params {
		out[p.Name] = p.Type
	}
	if fn.Def.Body != nil {
		cast.Walk(fn.Def.Body, func(n cast.Node) bool {
			if d, ok := n.(*cast.DeclStmt); ok {
				out[d.Name] = d.Type
			}
			return true
		})
	}
	return out
}
