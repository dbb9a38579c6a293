package core

import (
	"fmt"

	"repro/internal/apidb"
	"repro/internal/facts"
	"repro/internal/semantics"
)

func init() {
	Register(P3, func() Checker { return &SmartLoopChecker{} })
	Register(P4, func() Checker { return &HiddenRefChecker{} })
}

// SmartLoopChecker implements anti-pattern P3 (§5.2.1):
//
//	F_start → M_SL → S_break → F_end
//
// Macro-defined smartloops (for_each_matching_node, ...) take a reference on
// the iteration variable at the top of each iteration and drop it when the
// iterator advances; breaking out of the loop leaves the current element's
// reference held, so the user must put it before the break.
type SmartLoopChecker struct{}

// ID returns P3.
func (*SmartLoopChecker) ID() Pattern { return P3 }

// Check computes, along each path, the reference balance of every smartloop
// iteration variable at user-written break/goto/return exits from the loop.
func (*SmartLoopChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	db := ff.Unit.DB
	var out []Report
	reported := map[dedupKey]bool{}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		// balance per loop-injected object; loopOf remembers which macro and
		// lastInc the most recent acquisition (innermost-loop attribution).
		balance := map[string]int{}
		loopOf := map[string]string{}
		lastInc := map[string]int{}
		pathReported := map[string]bool{}
		var lastEv *semantics.Event
		for i := range tr.Idx {
			ev := tr.At(i)
			lastEv = ev
			switch ev.Op {
			case semantics.OpInc:
				if ff.SmartLoop(ev) && ev.Obj != "" {
					balance[ev.Obj]++
					loopOf[ev.Obj] = ev.FromMacro
					lastInc[ev.Obj] = i
				}
			case semantics.OpDec:
				for obj := range balance {
					if sameObj(ev.Obj, obj) {
						balance[obj]--
					}
				}
			case semantics.OpCond:
				// A smartloop exits when the iteration variable goes NULL:
				// on the NULL branch nothing is held any more.
				for _, name := range tr.BranchNull(i) {
					for obj := range balance {
						if semantics.BaseOf(obj) == name {
							balance[obj] = 0
						}
					}
				}
			case semantics.OpReturn:
				// Returning the element transfers ownership: not a leak.
				for obj := range balance {
					if ev.Obj != "" && sameObj(ev.Obj, obj) {
						balance[obj] = 0
					}
				}
			case semantics.OpBreak:
				if ev.FromMacro != "" {
					continue // macro-internal break is loop mechanics
				}
				// A break exits only the innermost loop: attribute it to
				// the most recently acquired loop variable.
				obj, best := "", -1
				for cand, bal := range balance {
					if bal > 0 && lastInc[cand] > best {
						obj, best = cand, lastInc[cand]
					}
				}
				if obj == "" {
					continue
				}
				pathReported[obj] = true
				macro := loopOf[obj]
				key := dk(ev.Pos, obj, "")
				if reported[key] {
					continue
				}
				reported[key] = true
				put := db.Loop(macro).PutAPI
				out = append(out, Report{
					Pattern: P3, Impact: Leak,
					Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
					Object: obj, API: macro,
					Message:    fmt.Sprintf("break out of %s leaks the reference %s holds on %s", macro, macro, obj),
					Suggestion: fmt.Sprintf("%s(%s); /* before the break */", put, obj),
					Witness:    tr.Events(),
				})
			}
		}
		// Premature exits that are not breaks (return inside the loop, goto
		// out of it): the path ends with a positive balance that no break
		// report covered. Loop exhaustion is excluded above by the NULL
		// discharge at the loop condition.
		for obj, bal := range balance {
			if bal <= 0 || pathReported[obj] {
				continue
			}
			macro := loopOf[obj]
			pos := fn.Def.Pos()
			if lastEv != nil {
				pos = lastEv.Pos
			}
			key := dk(pos, obj, "exit")
			if reported[key] {
				continue
			}
			reported[key] = true
			put := db.Loop(macro).PutAPI
			out = append(out, Report{
				Pattern: P3, Impact: Leak,
				Function: fn.Def.Name, File: fn.File, Pos: pos,
				Object: obj, API: macro,
				Message:    fmt.Sprintf("premature exit from %s leaks the reference it holds on %s", macro, obj),
				Suggestion: fmt.Sprintf("%s(%s); /* before leaving the loop */", put, obj),
				Witness:    tr.Events(),
			})
		}
	}
	return out
}

// HiddenRefChecker implements anti-pattern P4 (§5.2.2):
//
//	F_start → S_{G_H|P_H} → F_end
//
// Find-like refcounting-embedded APIs hide a get in their return value (and
// sometimes a put of their cursor argument). Two bug classes follow:
//
//   - missing-put (leak): the returned reference is never put on some path,
//     never returned to the caller, and never escapes the function;
//   - missing-get (UAF): the hidden put of a cursor argument drops a
//     reference the caller still owns, with no prior local get.
type HiddenRefChecker struct{}

// ID returns P4.
func (*HiddenRefChecker) ID() Pattern { return P4 }

// Check runs both directions of the hidden-refcounting analysis.
func (c *HiddenRefChecker) Check(ff *facts.FunctionFacts) []Report {
	out := c.missingPut(ff)
	out = append(out, c.missingGet(ff)...)
	return out
}

// missingPut flags hidden-get references with a put-free path to exit.
// Increments another pattern owns — smartloop iterations (P3), stores into
// long-lived state (P6), paired-but-error-path leaks (P5) — are emitted as
// tagged candidates for the engine's deferral table instead of being
// tracked; the live-state analysis below sees exactly the untagged stream.
func (*HiddenRefChecker) missingPut(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	// Whole-function decrement view: when the developer did pair the put
	// somewhere, a put-free path is an overlooked *location* (P5), not an
	// overlooked *API*.
	pairedSomewhere := func(inc *semantics.Event) bool {
		for _, di := range ff.Data.DecIdx {
			if decBalances(&ff.Data.All[di], inc) {
				return true
			}
		}
		return false
	}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		type tracked struct {
			ev      semantics.Event
			balance int
			dead    bool // returned, escaped, or reassigned away
		}
		live := map[string]*tracked{}
		var dropped []semantics.Event // refs discarded at the call site
		for i := range tr.Idx {
			ev := tr.At(i)
			switch ev.Op {
			case semantics.OpInc:
				if ev.Info == nil || !ev.Info.ReturnsRef || ev.Info.Class != apidb.Embedded {
					continue
				}
				var why DeferralReason
				switch {
				case ff.SmartLoop(ev):
					why = DeferSmartLoop
				case ev.Obj == "":
					// handled below as a discarded reference
				case ev.EscapesVia != "":
					why = DeferLongLivedStore
				case pairedSomewhere(ev) && tr.ErrorAtOrAfter(i):
					why = DeferPairedErrorPath
				}
				if why != "" {
					// Deferred candidate: emit it tagged so the engine's
					// table owns the drop, without perturbing the live
					// tracking the untagged analysis sees. The tag is part
					// of the dedup key so tagged candidates never shadow a
					// genuine report at the same position.
					key := dk(ev.Pos, ev.Obj, string(why))
					if reported[key] {
						continue
					}
					reported[key] = true
					rep := Report{
						Pattern: P4, Impact: Leak,
						Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
						Object: ev.Obj, API: ev.API,
						Deferred: why,
					}
					// Candidates the deferral table is guaranteed to drop
					// never surface their message or witness; skip
					// building them.
					if !deferralSet[P4][why] {
						rep.Message = fmt.Sprintf("%s returns a reference hidden in %s that is never put on this path", ev.API, ev.Obj)
						rep.Suggestion = fmt.Sprintf("%s(%s); /* before every exit on this path */", putNameFor(ff.Unit.DB, ev), ev.Obj)
						rep.Witness = tr.Events()
					}
					out = append(out, rep)
					continue
				}
				if ev.Obj == "" {
					dropped = append(dropped, *ev)
					continue
				}
				live[ev.Obj] = &tracked{ev: *ev, balance: 1}
			case semantics.OpCond:
				// The branch where the pointer is known NULL holds no
				// reference — the find failed, nothing to put.
				for _, name := range tr.BranchNull(i) {
					for obj, t := range live {
						if semantics.BaseOf(obj) == name {
							t.dead = true
						}
					}
				}
			case semantics.OpDec:
				for obj, t := range live {
					if sameObj(ev.Obj, obj) {
						t.balance--
					}
				}
			case semantics.OpAssign:
				// Escape or aliasing forgives the leak conservatively.
				for obj, t := range live {
					if sameObj(ev.Obj, obj) && (ev.EscapesVia != "" || ev.AssignTarget != "") {
						t.dead = true
					}
					if sameObj(ev.AssignTarget, obj) {
						t.dead = true // overwritten; alias analysis out of scope
					}
				}
			case semantics.OpReturn:
				for obj, t := range live {
					if ev.Obj != "" && sameObj(ev.Obj, obj) {
						t.dead = true // ownership transferred to caller
					}
				}
			}
		}
		for obj, t := range live {
			if t.dead || t.balance <= 0 {
				continue
			}
			key := dk(t.ev.Pos, obj, "")
			if reported[key] {
				continue
			}
			reported[key] = true
			out = append(out, Report{
				Pattern: P4, Impact: Leak,
				Function: fn.Def.Name, File: fn.File, Pos: t.ev.Pos,
				Object: obj, API: t.ev.API,
				Message:    fmt.Sprintf("%s returns a reference hidden in %s that is never put on this path", t.ev.API, obj),
				Suggestion: fmt.Sprintf("%s(%s); /* before every exit on this path */", putNameFor(ff.Unit.DB, &t.ev), obj),
				Witness:    tr.Events(),
			})
		}
		for k := range dropped {
			ev := &dropped[k]
			key := dk(ev.Pos, "<dropped>", "")
			if reported[key] {
				continue
			}
			reported[key] = true
			out = append(out, Report{
				Pattern: P4, Impact: Leak,
				Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
				Object: "", API: ev.API,
				Message:    fmt.Sprintf("the reference returned by %s is discarded at the call site", ev.API),
				Suggestion: fmt.Sprintf("capture the result and %s it when done", putNameFor(ff.Unit.DB, ev)),
				Witness:    tr.Events(),
			})
		}
	}
	return out
}

// missingGet flags hidden cursor puts of caller-owned parameters with no
// prior local get (the of_node_get-on-from lesson from Listing 4).
func (*HiddenRefChecker) missingGet(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		got := map[string]bool{}
		for i := range tr.Idx {
			ev := tr.At(i)
			switch ev.Op {
			case semantics.OpInc:
				if ev.Obj != "" {
					got[semantics.BaseOf(ev.Obj)] = true
				}
			case semantics.OpDec:
				if ev.Info == nil || !ev.Info.HasDecArg || ev.FromMacro != "" {
					continue
				}
				base := semantics.BaseOf(ev.Obj)
				if !ff.IsParam(base) || got[base] {
					continue
				}
				key := dk(ev.Pos, ev.Obj, "")
				if reported[key] {
					continue
				}
				reported[key] = true
				get := "of_node_get"
				out = append(out, Report{
					Pattern: P4, Impact: UAF,
					Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
					Object: ev.Obj, API: ev.API,
					Message:    fmt.Sprintf("%s drops the caller's reference on %s (hidden put of its cursor) without a prior get", ev.API, ev.Obj),
					Suggestion: fmt.Sprintf("%s(%s); /* before calling %s */", get, ev.Obj, ev.API),
					Witness:    tr.Events(),
				})
			}
		}
	}
	return out
}

func putNameFor(db *apidb.DB, ev *semantics.Event) string {
	if ev.Info != nil && ev.Info.Pair != "" {
		return ev.Info.Pair
	}
	_ = db
	return "put"
}
