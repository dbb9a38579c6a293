package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/semantics"
)

func init() {
	Register(P5, func() Checker { return &ErrorHandleChecker{} })
	Register(P6, func() Checker { return &InterPairedChecker{} })
	Register(P7, func() Checker { return &DirectFreeChecker{} })
}

// ErrorHandleChecker implements anti-pattern P5 (§5.3.1):
//
//	F_start → S_G → S_P | B_error → F_end
//
// The developer paired the put on the normal paths but overlooked the
// error-handling paths: some path through B_error reaches F_end without the
// decrement.
type ErrorHandleChecker struct{}

// ID returns P5.
func (*ErrorHandleChecker) ID() Pattern { return P5 }

// Check reports increments that are balanced on at least one path (showing
// developer intent) but unbalanced on a path through an error block.
// Increments another pattern owns — increments-on-error APIs (P1) and
// smartloop iterations (P3) — are emitted as tagged candidates for the
// engine's deferral table instead of being skipped inline.
func (*ErrorHandleChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	type state struct {
		ev           semantics.Event
		why          DeferralReason
		balancedPath bool
		errorLeak    *facts.Trace // a leaking path through an error block
	}
	incs := map[dedupKey]*state{}
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		for i := range tr.Idx {
			ev := tr.At(i)
			if ev.Op != semantics.OpInc || ev.Obj == "" || ev.Info == nil {
				continue
			}
			var why DeferralReason
			switch {
			case ev.Info.IncOnError:
				why = DeferIncOnError
			case ff.SmartLoop(ev):
				why = DeferSmartLoop
			}
			st := incs[dk(ev.Pos, ev.Obj, "")]
			if st == nil {
				st = &state{ev: *ev, why: why}
				incs[dk(ev.Pos, ev.Obj, "")] = st
			}
			balanced := false
			transferred := false
			nullOnPath := false
			for j := i + 1; j < tr.Len(); j++ {
				switch next := tr.At(j); next.Op {
				case semantics.OpDec:
					if decBalances(next, ev) {
						balanced = true
					}
				case semantics.OpReturn, semantics.OpAssign:
					if next.Obj != "" && sameObj(next.Obj, ev.Obj) {
						transferred = true
					}
				case semantics.OpCond:
					// On the branch where the object is known NULL there is
					// no reference to balance.
					for _, name := range tr.BranchNull(j) {
						if name == semantics.BaseOf(ev.Obj) {
							nullOnPath = true
						}
					}
				}
			}
			if balanced {
				st.balancedPath = true
				continue
			}
			if transferred || nullOnPath {
				continue
			}
			// Unbalanced: does the path run through an error block after
			// the increment?
			if tr.ErrorAfter(i) {
				st.errorLeak = tr
			}
		}
	}
	emit := false
	for _, st := range incs {
		if st.balancedPath && st.errorLeak != nil {
			emit = true
			break
		}
	}
	if !emit {
		return nil
	}
	// Deterministic emission order: sort by the rendered position|object
	// string. The strings are built only on this rare emitting path; the
	// per-event hot loop above keys the map by value.
	type entry struct {
		key string
		st  *state
	}
	entries := make([]entry, 0, len(incs))
	for _, st := range incs {
		entries = append(entries, entry{st.ev.Pos.String() + "|" + st.ev.Obj, st})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	var out []Report
	for _, e := range entries {
		st := e.st
		if !st.balancedPath || st.errorLeak == nil {
			continue
		}
		pair := "the paired put"
		if st.ev.Info.Pair != "" {
			pair = st.ev.Info.Pair
		}
		out = append(out, Report{
			Pattern: P5, Impact: Leak,
			Function: fn.Def.Name, File: fn.File, Pos: st.ev.Pos,
			Object: st.ev.Obj, API: st.ev.API,
			Message:    fmt.Sprintf("%s on %s is balanced on the normal path but leaks through an error-handling path", st.ev.API, st.ev.Obj),
			Suggestion: fmt.Sprintf("add %s(%s) to the error-handling path", pair, st.ev.Obj),
			Witness:    st.errorLeak.Events(),
			Deferred:   st.why,
		})
	}
	return out
}

// InterPairedChecker implements anti-pattern P6 (§5.3.2):
//
//	F⊤_start → S_G → F⊤_end  ∧  F⊥_start → F⊥_end (without S_P)
//
// Inter-paired callbacks (probe/remove, open/release, ...) split acquire and
// release across functions bound by a driver-ops structure; a get kept by
// the acquire callback must be matched by a put in the release callback.
// Name-paired functions (register/unregister, init/exit, create/destroy)
// follow the same rule.
type InterPairedChecker struct{}

// ID returns P6.
func (*InterPairedChecker) ID() Pattern { return P6 }

// Check is unused; P6 is unit-scoped.
func (*InterPairedChecker) Check(ff *facts.FunctionFacts) []Report { return nil }

// namePairSuffixes are recognized acquire→release name conventions.
var namePairSuffixes = [][2]string{
	{"_register", "_unregister"},
	{"_init", "_exit"},
	{"_init", "_uninit"},
	{"_create", "_destroy"},
	{"_probe", "_remove"},
	{"_open", "_release"},
	{"_connect", "_shutdown"},
}

// interPair is one acquire→release pairing P6 checks: a callback binding
// or a name convention. rel is "" when a binding leaves the release field
// unbound.
type interPair struct {
	acq, rel, desc string
}

// interPairs lists the pairings the exchange implies: callback bindings
// (globals in name order), then name-paired functions (prototypes
// included) in name order.
func interPairs(db *apidb.DB, d *cpg.Decls) []interPair {
	var out []interPair
	for _, cb := range d.CallbackBindings(db) {
		if cb.Acquire == "" {
			continue
		}
		out = append(out, interPair{cb.Acquire, cb.Release,
			fmt.Sprintf("%s.%s/%s", cb.Pair.Struct, cb.Pair.Acquire, cb.Pair.Release)})
	}
	// Name pairs in name order; only names with an acquire suffix can
	// start one, so only those are sorted.
	var acquirers []string
	for name := range d.Funcs {
		for _, sfx := range namePairSuffixes {
			if strings.HasSuffix(name, sfx[0]) {
				acquirers = append(acquirers, name)
				break
			}
		}
	}
	sort.Strings(acquirers)
	for _, name := range acquirers {
		for _, sfx := range namePairSuffixes {
			if !strings.HasSuffix(name, sfx[0]) {
				continue
			}
			rel := strings.TrimSuffix(name, sfx[0]) + sfx[1]
			if _, ok := d.Funcs[rel]; !ok {
				continue // no release counterpart declared: skip (cross-TU)
			}
			out = append(out, interPair{name, rel, name + "/" + rel})
		}
	}
	return out
}

// Inputs names every function bound by a callback initializer or paired by
// name — the functions whose facts CheckUnit may read.
func (*InterPairedChecker) Inputs(db *apidb.DB, d *cpg.Decls) []string {
	var names []string
	for _, p := range interPairs(db, d) {
		names = append(names, p.acq)
		if p.rel != "" {
			names = append(names, p.rel)
		}
	}
	return names
}

// CheckUnit inspects callback bindings and name-paired functions.
func (c *InterPairedChecker) CheckUnit(v *UnitView) []Report {
	var out []Report
	seen := map[dedupKey]bool{}
	for _, p := range interPairs(v.DB, v.Decls) {
		out = append(out, c.checkPair(v, p, seen)...)
	}
	return out
}

// checkPair reports acquire-side increments kept past acquire with no
// family-matching decrement in release. Smartloop iteration increments are
// emitted as tagged candidates (P3 owns them) rather than skipped inline.
func (*InterPairedChecker) checkPair(v *UnitView, p interPair, seen map[dedupKey]bool) []Report {
	acq := v.Facts(p.acq)
	if acq == nil {
		return nil // prototype: no body to analyze
	}
	// Collect unbalanced increments in acquire (whole-function view).
	all := acq.All
	type keptInc struct {
		ev  semantics.Event
		why DeferralReason
	}
	var kept []keptInc
	for k := range all {
		ev := &all[k]
		if ev.Op != semantics.OpInc || ev.Info == nil {
			continue
		}
		var why DeferralReason
		if v.SmartLoop(ev) {
			why = DeferSmartLoop
		}
		balanced := false
		for j := range all {
			if other := &all[j]; other.Op == semantics.OpDec && decBalances(other, ev) {
				balanced = true
			}
		}
		if !balanced {
			kept = append(kept, keptInc{ev: *ev, why: why})
		}
	}
	var out []Report
	for _, ki := range kept {
		ev := ki.ev
		if releaseHasFamilyDec(v, p.rel, ev) {
			continue
		}
		key := dk(ev.Pos, ev.Obj, string(ki.why))
		if seen[key] {
			continue
		}
		seen[key] = true
		relName := "<missing>"
		if p.rel != "" {
			relName = p.rel
		}
		pair := "the paired put"
		if ev.Info.Pair != "" {
			pair = ev.Info.Pair
		}
		out = append(out, Report{
			Pattern: P6, Impact: Leak,
			Function: p.acq, File: v.Decls.Funcs[p.acq].File, Pos: ev.Pos,
			Object: ev.Obj, API: ev.API,
			Message:    fmt.Sprintf("%s keeps a reference (%s) but the paired callback %s (%s) never puts it", p.acq, ev.API, relName, p.desc),
			Suggestion: fmt.Sprintf("call %s in %s", pair, relName),
			Witness:    all,
			Deferred:   ki.why,
		})
	}
	return out
}

// releaseHasFamilyDec reports whether the release function calls the
// decrement family that balances inc (the pair API, or any dec on the same
// counted struct).
func releaseHasFamilyDec(v *UnitView, rel string, inc semantics.Event) bool {
	if rel == "" {
		return false
	}
	d := v.Facts(rel)
	if d == nil {
		return false
	}
	for _, di := range d.DecIdx {
		ev := d.All[di]
		if inc.Info.Pair != "" && ev.API == inc.Info.Pair {
			return true
		}
		if ev.Info != nil && inc.Info.Struct != "" && ev.Info.Struct == inc.Info.Struct {
			return true
		}
	}
	return false
}

// DirectFreeChecker implements anti-pattern P7 (§5.3.3):
//
//	F_start → S_G → S_free → F_end
//
// kfree-ing a refcounted object bypasses its release callback, leaking every
// resource the decrement API would have cleaned up.
type DirectFreeChecker struct{}

// ID returns P7.
func (*DirectFreeChecker) ID() Pattern { return P7 }

// Check flags kfree-family calls whose operand is a refcounted object —
// either by declared type or because a get was observed earlier on the path.
func (*DirectFreeChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	var out []Report
	reported := map[dedupKey]bool{}
	// got collects bases incremented earlier on the trace; a handful of
	// entries at most, so a reused linear-scanned slice replaces the
	// per-trace map.
	var got []string
	for ti := range ff.Data.Traces {
		tr := &ff.Data.Traces[ti]
		got = got[:0]
		for i := range tr.Idx {
			ev := tr.At(i)
			switch ev.Op {
			case semantics.OpInc:
				if ev.Obj != "" {
					base := semantics.BaseOf(ev.Obj)
					seen := false
					for _, g := range got {
						if g == base {
							seen = true
							break
						}
					}
					if !seen {
						got = append(got, base)
					}
				}
			case semantics.OpFree:
				base := semantics.BaseOf(ev.Obj)
				if base == "" {
					continue
				}
				counted := isRefStructVar(ff.Unit.DB, ff.VarTypes(), base)
				for _, g := range got {
					if g == base {
						counted = true
						break
					}
				}
				if !counted {
					continue
				}
				if reported[dk(ev.Pos, "", "")] {
					continue
				}
				reported[dk(ev.Pos, "", "")] = true
				put := putExprFor(ff.Unit, ff.VarTypes(), base)
				out = append(out, Report{
					Pattern: P7, Impact: Leak,
					Function: fn.Def.Name, File: fn.File, Pos: ev.Pos,
					Object: ev.Obj, API: ev.API,
					Message:    fmt.Sprintf("%s(%s) frees a refcounted object directly, skipping its release callback", ev.API, ev.Obj),
					Suggestion: fmt.Sprintf("replace %s(%s) with %s", ev.API, ev.Obj, put),
					Witness:    tr.Events(),
				})
			}
		}
	}
	return out
}

// putExprFor renders the decrement call that should replace a direct free of
// the named variable: the struct's specific put API when one is registered,
// else a general put through the embedded counted member (kref/kobject).
func putExprFor(u *cpg.Unit, types map[string]castType, name string) string {
	t, ok := types[name]
	if !ok {
		return "the put API for " + name
	}
	s := t.StructName()
	for _, a := range u.DB.APIs() {
		if a.Op == apidb.OpDec && a.Struct == s && a.Class != apidb.General {
			return fmt.Sprintf("%s(%s)", a.Name, name)
		}
	}
	if sd := u.Decls.Structs[s]; sd != nil {
		for _, f := range sd.Fields {
			switch f.Struct {
			case "kref":
				return fmt.Sprintf("kref_put(&%s->%s)", name, f.Name)
			case "kobject":
				return fmt.Sprintf("kobject_put(&%s->%s)", name, f.Name)
			}
		}
	}
	return "the put API for " + name
}
