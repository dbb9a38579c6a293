// Package semantics implements the paper's semantic-template layer (§3.2).
//
// It projects each function's CFG into a stream of semantic events — the
// paper's operators 𝒢 (increment), 𝒫 (decrement), 𝒜 (assignment),
// 𝒟 (dereference), ℒ/𝒰 (lock/unlock) plus Free, Return, Break and branch
// conditions — and provides a path-template matcher so anti-patterns can be
// written exactly as in Table 1, e.g.
//
//	F_start → S_G → B_error → F_end
//
// The event extractor is shared by every checker in internal/core.
package semantics

import (
	"repro/internal/apidb"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/clex"
)

// OpKind is the semantic operator of an event.
type OpKind int

// Operators. Inc/Dec are 𝒢/𝒫; Assign is 𝒜; Deref is 𝒟; Lock/Unlock are
// ℒ/𝒰. The remainder give templates access to control context.
const (
	OpInc OpKind = iota
	OpDec
	OpAssign
	OpDeref
	OpLock
	OpUnlock
	OpFree
	OpCall // any other call, for completeness
	OpReturn
	OpBreak
	OpCond
)

var opNames = map[OpKind]string{
	OpInc: "G", OpDec: "P", OpAssign: "A", OpDeref: "D",
	OpLock: "L", OpUnlock: "U", OpFree: "Free", OpCall: "Call",
	OpReturn: "Return", OpBreak: "Break", OpCond: "Cond",
}

// String returns the paper's operator letter where one exists.
func (k OpKind) String() string { return opNames[k] }

// Event is one semantic operation observed in a function.
type Event struct {
	Op  OpKind
	Obj string // canonical object key ("" when not object-directed)

	// API is the callee name for call-derived events; the apidb entry is
	// attached for refcounting calls.
	API  string
	Info *apidb.API

	// Assignment metadata (escape analysis, P9).
	AssignTarget string // canonical key of the assignment target
	EscapesVia   string // "global", "outparam" or "" for local assigns

	// Cond metadata (P2): names known non-NULL on the true / false branch.
	NonNullTrue  []string
	NonNullFalse []string

	Pos       clex.Pos
	Block     *cfg.Block
	FromMacro string // outermost macro that injected the event, or ""
}

// FuncEvents is the event view of one function.
type FuncEvents struct {
	Graph  *cfg.Graph
	ByBlok map[*cfg.Block][]Event
}

// Extractor converts CFGs into events using an API knowledge base.
type Extractor struct {
	DB *apidb.DB
	// GlobalNames are file/global-scope variable names (escape targets).
	GlobalNames map[string]bool
}

// lockAPIs maps lock/unlock callees to their operator.
var lockAPIs = map[string]OpKind{
	"mutex_lock": OpLock, "mutex_unlock": OpUnlock,
	"mutex_lock_interruptible": OpLock,
	"spin_lock":                OpLock, "spin_unlock": OpUnlock,
	"spin_lock_irq": OpLock, "spin_unlock_irq": OpUnlock,
	"spin_lock_irqsave": OpLock, "spin_unlock_irqrestore": OpUnlock,
	"read_lock": OpLock, "read_unlock": OpUnlock,
	"write_lock": OpLock, "write_unlock": OpUnlock,
	"rcu_read_lock": OpLock, "rcu_read_unlock": OpUnlock,
	"down": OpLock, "up": OpUnlock,
}

// freeAPIs are direct deallocation functions (𝒮_free in P7). The value is
// the argument index holding the freed object.
var freeAPIs = map[string]int{
	"kfree": 0, "kvfree": 0, "vfree": 0, "kfree_sensitive": 0,
	"kzfree": 0, "kmem_cache_free": 1, "devm_kfree": 1,
}

// Extract computes the event view of g.
func (x *Extractor) Extract(g *cfg.Graph) *FuncEvents {
	fe := &FuncEvents{
		Graph:  g,
		ByBlok: make(map[*cfg.Block][]Event, len(g.Blocks)),
	}
	// Per-block event slices are carved as capacity-bounded windows of a
	// call-local chunk (the Extractor itself is shared across workers, so
	// the scratch cannot live on it). A block that outgrows its window
	// migrates to its own heap slice via the ordinary append realloc; the
	// window bytes it abandoned are wasted, not corrupted, because a window
	// can never grow past its own capacity in place.
	const evWindowCap, evChunkLen = 4, 16
	var chunk []Event
	for _, b := range g.Blocks {
		if cap(chunk)-len(chunk) < evWindowCap {
			chunk = make([]Event, 0, evChunkLen)
		}
		off := len(chunk)
		evs := chunk[off : off : off+evWindowCap]
		for _, s := range b.Stmts {
			evs = x.stmtEvents(evs, fe, b, s)
		}
		if len(evs) > 0 {
			fe.ByBlok[b] = evs
			if len(evs) <= evWindowCap {
				chunk = chunk[:off+len(evs)]
			}
		}
	}
	return fe
}

// Key canonicalizes an object expression: parens and a leading & are
// stripped so kref_put(&d->ref) and d->ref agree.
func Key(e cast.Expr) string {
	for {
		switch v := e.(type) {
		case *cast.ParenExpr:
			e = v.X
			continue
		case *cast.UnaryExpr:
			if v.Op == clex.Amp {
				e = v.X
				continue
			}
		case *cast.CastExpr:
			e = v.X
			continue
		}
		break
	}
	return cast.ExprString(e)
}

// BaseOf returns the root identifier name of an object key's expression, or
// the key itself when it is a bare name.
func BaseOf(key string) string {
	for i := 0; i < len(key); i++ {
		switch key[i] {
		case '-', '.', '[', '(':
			return key[:i]
		}
	}
	return key
}

// BranchTaken resolves a condition event against the successor block a path
// actually takes: +1 when the path follows the true branch, -1 for the false
// branch, 0 when unresolvable (path ends at the block, or it has no
// successors). next is the block following the event's block on the path
// (nil at path end), and the event must still carry its Block pointer —
// internal/facts resolves branches at compute time, before it strips blocks
// from the normalized traces. The NULL-duality (`if (!p)` puts p in
// NonNullFalse, so the true branch means p is NULL) is applied by the
// facts-layer accessors over the resolved direction.
func BranchTaken(ev Event, next *cfg.Block) int {
	if next == nil || ev.Block == nil || len(ev.Block.Succs) == 0 {
		return 0
	}
	if next == ev.Block.Succs[0] {
		return 1
	}
	return -1
}

// stmtEvents appends s's events to dst and returns the extended slice. The
// whole extractor family threads one destination buffer this way — the
// per-statement/per-expression intermediate slices used to dominate the
// extraction phase's allocation profile.
func (x *Extractor) stmtEvents(dst []Event, fe *FuncEvents, b *cfg.Block, s cast.Stmt) []Event {
	evs := dst
	origin := s.MacroOrigin()
	fromMacro := ""
	if len(origin) > 0 {
		fromMacro = origin[0]
	}

	switch st := s.(type) {
	case *cast.DeclStmt:
		if st.Init != nil {
			evs = x.exprEvents(evs, fe, b, st.Init, fromMacro)
			evs = x.bindEvents(evs, fe, b, st.Name, st.Init, st.Pos(), fromMacro, true)
		}
		return evs
	case *cast.ExprStmt:
		evs = x.exprEvents(evs, fe, b, st.X, fromMacro)
		evs = x.stmtBindEvents(evs, fe, b, st.X, fromMacro)
		// A ref-returning call whose result is discarded: the reference
		// is produced and immediately dropped (P4 flags it).
		if c, ok := unparen(st.X).(*cast.CallExpr); ok {
			if a := x.DB.Lookup(c.Callee()); a != nil && a.Op == apidb.OpInc && a.ReturnsRef {
				ev := Event{Op: OpInc, Obj: "", API: c.Callee(), Info: a,
					Pos: c.Pos(), Block: b, FromMacro: fromMacro}
				if fm := outermost(c.Origin); fm != "" {
					ev.FromMacro = fm
				}
				evs = append(evs, ev)
			}
		}
		return evs
	case *cast.ReturnStmt:
		if st.Value != nil {
			evs = x.exprEvents(evs, fe, b, st.Value, fromMacro)
		}
		obj := ""
		if st.Value != nil {
			obj = Key(st.Value)
		}
		evs = append(evs, Event{Op: OpReturn, Obj: obj, Pos: st.Pos(), Block: b, FromMacro: fromMacro})
		return evs
	case *cast.BreakStmt:
		return append(evs, Event{Op: OpBreak, Pos: st.Pos(), Block: b, FromMacro: fromMacro})
	case *cast.CondStmt:
		evs = x.exprEvents(evs, fe, b, st.X, fromMacro)
		evs = x.stmtBindEvents(evs, fe, b, st.X, fromMacro)
		tr, fa := cfg.NullCheckedIdents(st.X)
		evs = append(evs, Event{
			Op: OpCond, Pos: st.Pos(), Block: b, FromMacro: fromMacro,
			NonNullTrue: tr, NonNullFalse: fa,
		})
		return evs
	default:
		return evs
	}
}

// bindEvents classifies `target = rhs`: reference-producing calls become
// Inc events bound to the target; plain pointer copies become Assign events
// with escape classification (P9).
func (x *Extractor) bindEvents(dst []Event, fe *FuncEvents, b *cfg.Block, target string, rhs cast.Expr, pos clex.Pos, fromMacro string, isDecl bool) []Event {
	evs := dst
	switch r := unparen(rhs).(type) {
	case *cast.CallExpr:
		if a := x.DB.Lookup(r.Callee()); a != nil && a.Op == apidb.OpInc && a.ReturnsRef {
			ev := Event{
				Op: OpInc, Obj: target, API: r.Callee(), Info: a,
				Pos: pos, Block: b, FromMacro: fromMacro,
			}
			if fm := outermost(r.Origin); fm != "" {
				ev.FromMacro = fm
			}
			if !isDecl {
				// Binding the new reference straight into a global or an
				// out-parameter stores it in long-lived state.
				ev.EscapesVia = x.escapeClass(fe, target)
			}
			evs = append(evs, ev)
		}
	case *cast.Ident, *cast.MemberExpr, *cast.UnaryExpr, *cast.CastExpr:
		if !isObjExpr(rhs) {
			break // literals and arithmetic are not reference copies
		}
		src := Key(rhs)
		ev := Event{
			Op: OpAssign, Obj: src, AssignTarget: target,
			Pos: pos, Block: b, FromMacro: fromMacro,
		}
		if !isDecl {
			ev.EscapesVia = x.escapeClass(fe, target)
		}
		evs = append(evs, ev)
	}
	return evs
}

// isObjExpr reports whether the expression denotes an object reference (an
// identifier-rooted lvalue, possibly through &, * or casts) rather than a
// literal or arithmetic value.
func isObjExpr(e cast.Expr) bool {
	switch v := e.(type) {
	case *cast.Ident:
		return v.Name != "NULL"
	case *cast.MemberExpr, *cast.IndexExpr:
		return cast.BaseIdent(e) != nil
	case *cast.ParenExpr:
		return isObjExpr(v.X)
	case *cast.CastExpr:
		return isObjExpr(v.X)
	case *cast.UnaryExpr:
		if v.Op == clex.Amp || v.Op == clex.Star {
			return isObjExpr(v.X)
		}
	}
	return false
}

// stmtBindEvents finds assignments at any depth of a statement expression
// (including inside conditions, `if ((np = of_find(...)))`) and classifies
// each via bindEvents.
func (x *Extractor) stmtBindEvents(dst []Event, fe *FuncEvents, b *cfg.Block, e cast.Expr, fromMacro string) []Event {
	evs := dst
	cast.Walk(e, func(n cast.Node) bool {
		if a, ok := n.(*cast.AssignExpr); ok && a.Op == clex.Assign {
			evs = x.bindEvents(evs, fe, b, Key(a.LHS), a.RHS, a.Pos(), fromMacro, false)
		}
		return true
	})
	return evs
}

// escapeClass classifies an assignment target: writing through a global or
// an output parameter lets the reference escape the function (P9).
func (x *Extractor) escapeClass(fe *FuncEvents, target string) string {
	base := BaseOf(target)
	if x.GlobalNames[base] {
		return "global"
	}
	for _, p := range fe.Graph.Fn.Params {
		if p.Name == base && base != target {
			// Writing through a parameter (param->field = p, *out = p):
			// the reference escapes to the caller.
			return "outparam"
		}
	}
	return ""
}

// exprEvents walks an expression tree in *evaluation order*, yielding call
// events (Inc/Dec/Lock/Unlock/Free/Call) and dereference events. Evaluation
// order matters: the dereference inside kref_put(&d->ref)'s own argument
// happens before the put and must not read as a use-after-decrease (P8).
func (x *Extractor) exprEvents(dst []Event, fe *FuncEvents, b *cfg.Block, e cast.Expr, fromMacro string) []Event {
	evs := dst
	deref := func(inner cast.Expr, pos clex.Pos) {
		if base := cast.BaseIdent(inner); base != nil {
			evs = append(evs, Event{
				Op: OpDeref, Obj: base.Name, Pos: pos, Block: b,
				FromMacro: fromMacro,
			})
		}
	}
	var walk func(n cast.Expr)
	walk = func(n cast.Expr) {
		switch v := n.(type) {
		case nil:
		case *cast.CallExpr:
			for _, a := range v.Args {
				walk(a)
			}
			evs = x.callEvents(evs, b, v, fromMacro)
		case *cast.MemberExpr:
			walk(v.X)
			if v.Arrow {
				deref(v.X, v.Pos())
			}
		case *cast.UnaryExpr:
			walk(v.X)
			if v.Op == clex.Star {
				deref(v.X, v.Pos())
			}
		case *cast.BinaryExpr:
			walk(v.X)
			walk(v.Y)
		case *cast.AssignExpr:
			walk(v.RHS)
			walk(v.LHS)
		case *cast.ParenExpr:
			walk(v.X)
		case *cast.IndexExpr:
			walk(v.X)
			walk(v.Index)
		case *cast.CondExpr:
			walk(v.Cond)
			walk(v.Then)
			walk(v.Else)
		case *cast.CastExpr:
			walk(v.X)
		case *cast.CommaExpr:
			walk(v.X)
			walk(v.Y)
		case *cast.SizeofExpr:
			// sizeof does not evaluate its operand.
		case *cast.InitListExpr:
			for _, el := range v.Elems {
				walk(el)
			}
			for _, fi := range v.Fields {
				walk(fi.Value)
			}
		}
	}
	walk(e)
	return evs
}

func (x *Extractor) callEvents(dst []Event, b *cfg.Block, c *cast.CallExpr, fromMacro string) []Event {
	name := c.Callee()
	if name == "" {
		return dst
	}
	if fm := outermost(c.Origin); fm != "" {
		fromMacro = fm
	}
	mk := func(op OpKind, obj string, info *apidb.API) Event {
		return Event{
			Op: op, Obj: obj, API: name, Info: info,
			Pos: c.Pos(), Block: b, FromMacro: fromMacro,
		}
	}
	if op, ok := lockAPIs[name]; ok {
		obj := ""
		if len(c.Args) > 0 {
			obj = Key(c.Args[0])
		}
		return append(dst, mk(op, obj, nil))
	}
	if idx, ok := freeAPIs[name]; ok {
		obj := ""
		if idx < len(c.Args) {
			obj = Key(c.Args[idx])
		}
		return append(dst, mk(OpFree, obj, nil))
	}
	a := x.DB.Lookup(name)
	if a == nil {
		return append(dst, mk(OpCall, "", nil))
	}
	evs := dst
	switch a.Op {
	case apidb.OpInc:
		if a.ObjArg >= 0 && a.ObjArg < len(c.Args) {
			evs = append(evs, mk(OpInc, Key(c.Args[a.ObjArg]), a))
		} else if !a.ReturnsRef {
			evs = append(evs, mk(OpInc, "", a))
		}
		// ReturnsRef increments are bound at statement level (see
		// bindEvents/stmtBindEvents) so the target variable is known.
		// Hidden put of a cursor argument (of_find_*'s `from`).
		if a.HasDecArg && a.DecArgObj >= 0 && a.DecArgObj < len(c.Args) {
			if !isNullArg(c.Args[a.DecArgObj]) {
				dec := mk(OpDec, Key(c.Args[a.DecArgObj]), a)
				dec.API = name
				evs = append(evs, dec)
			}
		}
	case apidb.OpDec:
		obj := ""
		if a.ObjArg >= 0 && a.ObjArg < len(c.Args) {
			obj = Key(c.Args[a.ObjArg])
		} else if len(c.Args) > 0 {
			obj = Key(c.Args[0])
		}
		evs = append(evs, mk(OpDec, obj, a))
	default:
		evs = append(evs, mk(OpCall, "", a))
	}
	return evs
}

func isNullArg(e cast.Expr) bool {
	switch v := unparen(e).(type) {
	case *cast.Lit:
		return v.Text == "0"
	case *cast.Ident:
		return v.Name == "NULL"
	}
	return false
}

func unparen(e cast.Expr) cast.Expr {
	for {
		if p, ok := e.(*cast.ParenExpr); ok {
			e = p.X
			continue
		}
		return e
	}
}

func outermost(origin []string) string {
	if len(origin) == 0 {
		return ""
	}
	return origin[0]
}
