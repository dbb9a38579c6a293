package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/facts"
	"repro/internal/obs"
)

// toyChecker is the out-of-tree "P10" pass used to prove the registry
// contract: registration without touching the engine, numeric pattern
// ordering, and deterministic interleave with the built-ins.
type toyChecker struct{}

func (*toyChecker) ID() Pattern { return "P10" }

func (*toyChecker) Check(ff *facts.FunctionFacts) []Report {
	fn := ff.Fn
	return []Report{{
		Pattern: "P10", Impact: Leak,
		Function: fn.Def.Name, File: fn.File, Pos: fn.Def.Pos(),
		Message: "toy pass saw " + fn.Def.Name,
	}}
}

func TestRegistryToyCheckerRoundTrip(t *testing.T) {
	Register("P10", func() Checker { return &toyChecker{} })
	defer delete(registry, "P10")

	pats := RegisteredPatterns()
	if n := len(pats); n < 10 || pats[n-2] != P9 || pats[n-1] != "P10" {
		t.Fatalf("RegisteredPatterns = %v, want numeric order ending P9, P10", pats)
	}
	if mk, ok := registry["P10"]; !ok || mk().ID() != "P10" {
		t.Fatal("registry lacks a P10 constructor")
	}
	if fp := NewEngine().patternsFP(); !strings.HasSuffix(fp, "P9,P10") {
		t.Fatalf("patternsFP = %q, want suffix P9,P10", fp)
	}

	// With the toy pass in the suite, reports must still be deterministic
	// across worker counts, and the toy pass must have run per function.
	sources, headers := parallelSources()
	seq := analyzeReports(t, sources, headers, Options{Workers: 1})
	if len(withPattern(seq, "P10")) == 0 {
		t.Fatal("toy checker produced no reports")
	}
	for _, w := range []int{2, 8} {
		par := analyzeReports(t, sources, headers, Options{Workers: w})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d reports differ from sequential with toy checker registered", w)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(P1, func() Checker { return &toyChecker{} })
}

func TestNewEngineForSelection(t *testing.T) {
	e, err := NewEngineFor([]Pattern{P4, P1, P4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []Pattern
	for _, c := range e.Checkers {
		ids = append(ids, c.ID())
	}
	if !reflect.DeepEqual(ids, []Pattern{P1, P4}) {
		t.Fatalf("selection = %v, want deduplicated stable order [P1 P4]", ids)
	}
	if _, err := NewEngineFor([]Pattern{"P77"}); err == nil ||
		!strings.Contains(err.Error(), `unknown checker pattern "P77"`) {
		t.Fatalf("unknown pattern error = %v", err)
	} else if !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("NewEngineFor error %v does not wrap ErrUnknownPattern", err)
	}
	if e := NewEngine(); len(e.Checkers) != 9 {
		t.Fatalf("NewEngine has %d checkers, want the 9 built-ins", len(e.Checkers))
	}
}

func TestParsePatterns(t *testing.T) {
	got, err := ParsePatterns(" P4 , P1 ,")
	if err != nil || !reflect.DeepEqual(got, []Pattern{P4, P1}) {
		t.Fatalf("ParsePatterns = %v, %v", got, err)
	}
	if got, err := ParsePatterns(""); got != nil || err != nil {
		t.Fatalf("empty selection = %v, %v; want nil, nil", got, err)
	}
	_, err = ParsePatterns("P1,PX")
	if err == nil {
		t.Fatal("unknown pattern should be an error")
	}
	if !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("ParsePatterns error %v does not wrap ErrUnknownPattern", err)
	}
	// The usage error must name every registered ID so the CLI message is
	// self-explanatory.
	for _, p := range RegisteredPatterns() {
		if !strings.Contains(err.Error(), string(p)) {
			t.Fatalf("error %q does not list registered pattern %s", err, p)
		}
	}
}

// TestEngineFactsComputedOnce asserts the facts layer memoizes across the
// whole checker suite: one compute per defined function regardless of
// worker count or how many checkers consume the facts.
func TestEngineFactsComputedOnce(t *testing.T) {
	sources, headers := parallelSources()
	run, err := Analyze(context.Background(), Request{Sources: sources, Headers: headers})
	if err != nil {
		t.Fatal(err)
	}
	u := run.Unit
	for _, workers := range []int{1, 8} {
		uf := facts.NewUnit(u)
		computed := func() int64 {
			reg := obs.NewRegistry()
			uf.Observe(reg)
			return reg.Counter("facts.computed")
		}
		e := NewEngine()
		e.Workers = workers
		e.CheckUnitFacts(uf)
		if got, want := computed(), int64(len(uf.FunctionNames())); got != want {
			t.Fatalf("workers=%d: facts computed %d times, want %d (once per function)", workers, got, want)
		}
		// A second pass over the same UnitFacts recomputes nothing.
		e.CheckUnitFacts(uf)
		if got, want := computed(), int64(len(uf.FunctionNames())); got != want {
			t.Fatalf("re-check recomputed facts: %d != %d", got, want)
		}
	}
}
