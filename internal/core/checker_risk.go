package core

import (
	"fmt"

	"repro/internal/facts"
	"repro/internal/semantics"
)

func init() {
	Register(P8, func() Checker { return &UADChecker{} })
	Register(P9, func() Checker { return &EscapeChecker{} })
}

// UADChecker implements anti-pattern P8 (§5.4.1, use-after-decrease):
//
//	F_start → S_{P(p0)} → S_{D(p0)} → F_end
//
// Accessing an object after dropping the reference is safe only while some
// other reference provably pins it; if the dropped reference was the last
// one, the decrement freed the object and the access is a UAF. The paper
// found 94 historical bugs of this shape (and two of its new reports were
// rejected by developers who "firmly believe" the count cannot reach zero —
// exactly the future-risk the pattern warns about).
type UADChecker struct{}

// ID returns P8.
func (*UADChecker) ID() Pattern { return P8 }

// Check reports dereferences of an object after a may-free decrement on the
// same path, with no intervening reassignment or re-acquisition.
func (*UADChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	// putAt tracks may-free decrements as (base name, event index) pairs; a
	// reused linear-scanned slice replaces the per-trace map (see the P2
	// checker for the rationale).
	type decTrack struct {
		base string
		idx  int
	}
	var putAt []decTrack
	drop := func(name string) {
		for k := range putAt {
			if putAt[k].base == name {
				putAt[k] = putAt[len(putAt)-1]
				putAt = putAt[:len(putAt)-1]
				return
			}
		}
	}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		putAt = putAt[:0]
		for i := range tr.Idx {
			ev := tr.At(i)
			switch ev.Op {
			case semantics.OpDec:
				if ev.Info != nil && ev.Info.MayFree && ev.Obj != "" {
					base := semantics.BaseOf(ev.Obj)
					drop(base)
					putAt = append(putAt, decTrack{base, i})
				}
			case semantics.OpInc:
				if ev.Obj != "" {
					drop(semantics.BaseOf(ev.Obj))
				}
			case semantics.OpAssign:
				if ev.AssignTarget != "" {
					drop(semantics.BaseOf(ev.AssignTarget))
				}
			case semantics.OpDeref:
				decIdx := -1
				for _, t := range putAt {
					if t.base == ev.Obj {
						decIdx = t.idx
						break
					}
				}
				if decIdx < 0 {
					continue
				}
				dec := tr.At(decIdx)
				key := dk(dec.Pos, ev.Obj, "")
				if reported[key] {
					continue
				}
				reported[key] = true
				out = append(out, Report{
					Pattern: P8, Impact: UAF,
					Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
					Object: ev.Obj, API: dec.API,
					Message:    fmt.Sprintf("%s is dereferenced after %s dropped its reference (use-after-decrease)", ev.Obj, dec.API),
					Suggestion: fmt.Sprintf("move the %s(%s) call after the last use of %s", dec.API, dec.Obj, ev.Obj),
					Witness:    tr.Events(),
				})
			}
		}
	}
	return out
}

// EscapeChecker implements anti-pattern P9 (§5.4.2, reference escape):
//
//	F_start → S_{A_{G|O}} → F_end
//
// Storing a counted reference into a global or an out-parameter creates a
// reference that outlives the function; without an increment around the
// escape point the refcounter undercounts the live references and a later
// put elsewhere frees the object early.
type EscapeChecker struct{}

// ID returns P9.
func (*EscapeChecker) ID() Pattern { return P9 }

// Check reports escaping assignments of refcounted pointers with no
// balancing increment anywhere in the function. The whole-function views —
// the block-ordered event stream, the incremented-base and locally-owned
// sets — come precomputed from the facts layer.
func (*EscapeChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	// An inc anywhere (before or after the escape point — "around", per the
	// paper) forgives the escape.
	incsOf := ff.Data.IncBases
	ownedRef := ff.Data.OwnedBases // locally acquired references (hidden gets)
	all := ff.All()
	var out []Report
	reported := map[dedupKey]bool{}
	for _, ei := range ff.Data.EscapeIdx {
		ev := &all[ei]
		src := semantics.BaseOf(ev.Obj)
		// The escaping value must be a counted pointer: declared as a
		// pointer to a refcounted struct and NOT a locally owned reference
		// (escaping a locally acquired reference transfers ownership).
		if !isRefStructVar(ff.Unit.DB, ff.VarTypes(), src) || ownedRef[src] {
			continue
		}
		if incsOf[src] {
			continue
		}
		key := dk(ev.Pos, ev.Obj, "")
		if reported[key] {
			continue
		}
		reported[key] = true
		out = append(out, Report{
			Pattern: P9, Impact: UAF,
			Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
			Object: ev.Obj, API: "",
			Message:    fmt.Sprintf("reference %s escapes via %s (%s) without an increment around the escape point", ev.Obj, ev.AssignTarget, ev.EscapesVia),
			Suggestion: fmt.Sprintf("take a reference on %s before the assignment to %s", ev.Obj, ev.AssignTarget),
			Witness:    all,
		})
	}
	return out
}
