package core

import (
	"sort"

	"repro/internal/obs"
)

// This file is the single home of cross-pattern precedence: which pattern
// owns a diagnosis when several checkers can describe the same underlying
// bug. It has two layers, both applied by the engine after collection:
//
//  1. The deferral table: checkers emit candidates tagged with a
//     DeferralReason instead of silently skipping "some other checker's
//     business" inline; applyDeferrals drops every tagged candidate whose
//     (pattern, reason) pair appears in the table. This replaces the
//     early-continue special cases that used to live inside
//     checker_hidden.go and checker_location.go.
//  2. The rank map: among surviving reports on the same (file, function,
//     object), the most specific diagnosis wins (P1/P2/P3/P7/P8/P9 over P4
//     over P5/P6), enforced by finalize.

// DeferralReason tags a candidate report that a more specific checker owns.
// Tagged candidates are collected normally (so tests can assert the table
// reproduces each historical inline skip) and dropped by applyDeferrals
// before deduplication; they never reach the engine's output.
type DeferralReason string

// The deference rules hoisted out of the checkers.
const (
	// DeferIncOnError: increments-on-error APIs are P1's specialty — a
	// leak through their error path is a return-error deviation.
	DeferIncOnError DeferralReason = "inc-on-error"
	// DeferSmartLoop: smartloop iteration references are P3's business —
	// the loop macro, not the hidden-get API it expands to, owns the
	// diagnosis.
	DeferSmartLoop DeferralReason = "smartloop"
	// DeferLongLivedStore: references stored into long-lived state are
	// P6's business — the put belongs in the paired release callback.
	DeferLongLivedStore DeferralReason = "long-lived-store"
	// DeferPairedErrorPath: an increment paired somewhere but leaking
	// through an error block is exactly P5's overlooked-location
	// diagnosis, not P4's overlooked-API one.
	DeferPairedErrorPath DeferralReason = "paired-error-path"
)

// DeferralRule says: a From-pattern candidate tagged with Reason is owned by
// the To pattern, so the engine drops the candidate.
type DeferralRule struct {
	From   Pattern
	Reason DeferralReason
	To     Pattern
}

// deferralRules is the declarative precedence/suppression table. To is
// documentation (the owning pattern runs independently and produces its own
// report); From+Reason decide the drop.
var deferralRules = []DeferralRule{
	{From: P4, Reason: DeferSmartLoop, To: P3},
	{From: P4, Reason: DeferLongLivedStore, To: P6},
	{From: P4, Reason: DeferPairedErrorPath, To: P5},
	{From: P5, Reason: DeferIncOnError, To: P1},
	{From: P5, Reason: DeferSmartLoop, To: P3},
	{From: P6, Reason: DeferSmartLoop, To: P3},
}

// deferralSet indexes the table for the engine's filter.
var deferralSet = func() map[Pattern]map[DeferralReason]bool {
	m := map[Pattern]map[DeferralReason]bool{}
	for _, r := range deferralRules {
		if m[r.From] == nil {
			m[r.From] = map[DeferralReason]bool{}
		}
		m[r.From][r.Reason] = true
	}
	return m
}()

// applyDeferrals drops candidates whose (pattern, reason) tag appears in the
// deferral table, counting each drop into reg (nil-safe) as
// deferrals.<pattern>.<reason>. Candidates tagged with a reason the table
// does not map for their pattern survive untouched — an unknown tag must be
// visible, not silently eaten. It filters in place, reusing reports'
// backing array.
func applyDeferrals(reports []Report, reg *obs.Registry) []Report {
	out := reports[:0]
	for _, r := range reports {
		if r.Deferred != "" && deferralSet[r.Pattern][r.Deferred] {
			reg.Add("deferrals."+string(r.Pattern)+"."+string(r.Deferred), 1)
			continue
		}
		out = append(out, r)
	}
	return out
}

// precedence ranks patterns for same-object suppression among surviving
// reports: lower value wins on the same (file, function, object).
var precedence = map[Pattern]int{
	P1: 0, P2: 0, P3: 0, P7: 0, P8: 0, P9: 0, // specific diagnoses
	P4: 1,
	P5: 2,
	P6: 2,
}

// finalize deduplicates, applies same-object rank suppression, and sorts
// reports into the stable output order. It filters in place, reusing
// reports' backing array, and returns nil when no report survives.
func finalize(reports []Report) []Report {
	// Exact-duplicate removal. The keys mirror Report.Key but are comparable
	// structs, so deduplicating candidates allocates nothing.
	type rkey struct {
		file    string
		line    int
		pattern Pattern
		object  string
	}
	seen := map[rkey]bool{}
	uniq := reports[:0]
	for _, r := range reports {
		k := rkey{r.File, r.Pos.Line, r.Pattern, r.Object}
		if seen[k] {
			continue
		}
		seen[k] = true
		uniq = append(uniq, r)
	}
	// Cross-pattern suppression on (function, object, impact-family).
	type okey struct{ file, function, object string }
	best := map[okey]int{}
	objKey := func(r Report) okey { return okey{r.File, r.Function, r.Object} }
	for _, r := range uniq {
		k := objKey(r)
		p := precedence[r.Pattern]
		if cur, ok := best[k]; !ok || p < cur {
			best[k] = p
		}
	}
	out := uniq[:0]
	for _, r := range uniq {
		if r.Object != "" && precedence[r.Pattern] > best[objKey(r)] {
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		return a.Object < b.Object
	})
	return out
}
