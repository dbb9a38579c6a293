package core

import (
	"fmt"

	"repro/internal/facts"
	"repro/internal/semantics"
)

func init() {
	Register(P1, func() Checker { return &ReturnErrorChecker{} })
	Register(P2, func() Checker { return &ReturnNullChecker{} })
}

// ReturnErrorChecker implements anti-pattern P1 (§5.1.1):
//
//	F_start → S_{G_E} → B_error → F_end
//
// A deviated API (pm_runtime_get_sync, kobject_init_and_add) increments the
// refcounter even when it reports failure, so a path that bails into error
// handling without the balancing put leaks the reference.
type ReturnErrorChecker struct{}

// ID returns P1.
func (*ReturnErrorChecker) ID() Pattern { return P1 }

// Check scans every bounded path for an increments-on-error call followed by
// an error block with no balancing decrement.
func (*ReturnErrorChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		for i := range tr.Idx {
			ev := tr.At(i)
			if ev.Op != semantics.OpInc || ev.Info == nil || !ev.Info.IncOnError {
				continue
			}
			if reported[dk(ev.Pos, "", "")] {
				continue
			}
			// Does this path enter an error block after the call?
			if !tr.ErrorAtOrAfter(i) {
				continue
			}
			// Any balancing put later on the path forgives it.
			balanced := false
			for j := i + 1; j < tr.Len(); j++ {
				if dec := tr.At(j); dec.Op == semantics.OpDec && decBalances(dec, ev) {
					balanced = true
					break
				}
			}
			if balanced {
				continue
			}
			reported[dk(ev.Pos, "", "")] = true
			pair := ev.Info.Pair
			if pair == "" {
				pair = "the paired put"
			}
			out = append(out, Report{
				Pattern: P1, Impact: Leak,
				Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
				Object: ev.Obj, API: ev.API,
				Message:    fmt.Sprintf("%s increments the refcount even on failure, but the error path returns without %s", ev.API, pair),
				Suggestion: fmt.Sprintf("call %s(%s) in the error path before returning", pair, ev.Obj),
				Witness:    tr.Events(),
			})
		}
	}
	return out
}

// decBalances reports whether dec plausibly balances inc: same object key,
// or the dec is the registered pair API of the inc.
func decBalances(dec, inc *semantics.Event) bool {
	if sameObj(dec.Obj, inc.Obj) {
		return true
	}
	return inc.Info != nil && inc.Info.Pair != "" && dec.API == inc.Info.Pair
}

// ReturnNullChecker implements anti-pattern P2 (§5.1.2):
//
//	F_start → S_{G_N} → S_{D_N} → F_end
//
// A deviated increment API returns the counted object pointer — which may be
// NULL — and the caller dereferences it without a NULL check.
type ReturnNullChecker struct{}

// ID returns P2.
func (*ReturnNullChecker) ID() Pattern { return P2 }

// Check tracks may-be-NULL references along each path, discharging them at
// NULL tests (branch-direction aware) and reporting unchecked dereferences.
func (*ReturnNullChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	// unchecked tracks may-be-NULL references as (base name, producing-event
	// index) pairs. A trace carries at most a handful, so a linear-scanned
	// slice with its backing reused across traces replaces the per-trace
	// map — buckets sized for semantics.Event values were a visible slice
	// of the checking phase's allocations.
	type nullTrack struct {
		base string
		idx  int
	}
	var unchecked []nullTrack
	drop := func(name string) {
		for k := range unchecked {
			if unchecked[k].base == name {
				unchecked[k] = unchecked[len(unchecked)-1]
				unchecked = unchecked[:len(unchecked)-1]
				return
			}
		}
	}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		unchecked = unchecked[:0]
		for i := range tr.Idx {
			ev := tr.At(i)
			switch ev.Op {
			case semantics.OpInc:
				if ev.Info != nil && ev.Info.MayReturnNull && ev.Obj != "" {
					base := semantics.BaseOf(ev.Obj)
					drop(base)
					unchecked = append(unchecked, nullTrack{base, i})
				}
			case semantics.OpCond:
				// Which branch does this path take?
				for _, name := range tr.BranchNonNull(i) {
					drop(name)
				}
			case semantics.OpAssign:
				// Reassignment invalidates tracking.
				drop(semantics.BaseOf(ev.AssignTarget))
			case semantics.OpDeref:
				srcIdx := -1
				for _, t := range unchecked {
					if t.base == ev.Obj {
						srcIdx = t.idx
						break
					}
				}
				if srcIdx < 0 {
					continue
				}
				src := tr.At(srcIdx)
				key := dk(src.Pos, ev.Obj, "")
				if reported[key] {
					continue
				}
				reported[key] = true
				out = append(out, Report{
					Pattern: P2, Impact: NPD,
					Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
					Object: ev.Obj, API: src.API,
					Message:    fmt.Sprintf("%s may return NULL but %s is dereferenced without a check", src.API, ev.Obj),
					Suggestion: fmt.Sprintf("if (!%s)\n\t\treturn -ENODEV;", ev.Obj),
					Witness:    tr.Events(),
				})
			}
		}
	}
	return out
}
