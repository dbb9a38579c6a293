package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrUnknownPattern is the sentinel wrapped by every checker-selection error
// (NewEngineFor, ParsePatterns, Analyze). CLIs match it with errors.Is to
// print a usage error instead of a stack trace.
var ErrUnknownPattern = errors.New("unknown checker pattern")

// registry maps pattern IDs to checker constructors. Each NewEngine call
// instantiates fresh checkers, so registered implementations may carry
// per-run state even though the built-in nine are stateless.
var registry = map[Pattern]func() Checker{}

// Register adds a checker constructor under its pattern ID. The nine
// built-in checkers register themselves from their file's init; external or
// experimental checkers (P10, ...) plug in the same way without touching the
// engine. Registering an already-registered pattern panics.
func Register(p Pattern, mk func() Checker) {
	if p == "" || mk == nil {
		panic("core: Register requires a pattern ID and a constructor")
	}
	if _, dup := registry[p]; dup {
		panic("core: duplicate checker registration for " + string(p))
	}
	registry[p] = mk
}

// RegisteredPatterns returns every registered pattern ID in stable pattern
// order: canonical "P<n>" IDs numerically (P2 before P10), anything else
// lexically after them.
func RegisteredPatterns() []Pattern {
	out := make([]Pattern, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return patternLess(out[i], out[j]) })
	return out
}

// patternLess orders canonical "P<number>" IDs numerically and falls back to
// lexical order for exotic names (which sort after all canonical IDs).
func patternLess(a, b Pattern) bool {
	na, oka := patternNum(a)
	nb, okb := patternNum(b)
	if oka && okb {
		if na != nb {
			return na < nb
		}
		return a < b
	}
	if oka != okb {
		return oka
	}
	return a < b
}

func patternNum(p Pattern) (int, bool) {
	s := string(p)
	if len(s) < 2 || s[0] != 'P' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// NewEngine returns an engine with every registered checker in stable
// pattern order (the nine built-ins by default).
func NewEngine() *Engine {
	e, err := NewEngineFor(nil)
	if err != nil {
		panic("core: " + err.Error()) // unreachable: nil selects all registered
	}
	return e
}

// NewEngineFor returns an engine running the selected patterns, deduplicated
// and iterated in stable pattern order regardless of how the selection was
// spelled. A nil or empty selection runs every registered checker. Unknown
// patterns are an error naming the registered IDs — CLI callers surface it
// as a usage error (see ParsePatterns).
func NewEngineFor(patterns []Pattern) (*Engine, error) {
	if len(patterns) == 0 {
		patterns = RegisteredPatterns()
	}
	seen := map[Pattern]bool{}
	sel := make([]Pattern, 0, len(patterns))
	for _, p := range patterns {
		if registry[p] == nil {
			return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownPattern, p, registeredIDs())
		}
		if !seen[p] {
			seen[p] = true
			sel = append(sel, p)
		}
	}
	sort.Slice(sel, func(i, j int) bool { return patternLess(sel[i], sel[j]) })
	checkers := make([]Checker, len(sel))
	for i, p := range sel {
		checkers[i] = registry[p]()
	}
	return &Engine{Checkers: checkers}, nil
}

// ParsePatterns parses a comma-separated checker selection ("P1,P4"). An
// empty string selects nil (= every registered checker); unknown patterns
// are an error naming the registered IDs, so CLIs can reject bad -checkers
// values as usage errors before running anything.
func ParsePatterns(s string) ([]Pattern, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Pattern
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		p := Pattern(f)
		if registry[p] == nil {
			return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownPattern, f, registeredIDs())
		}
		out = append(out, p)
	}
	return out, nil
}

func registeredIDs() string {
	ids := RegisteredPatterns()
	parts := make([]string, len(ids))
	for i, p := range ids {
		parts[i] = string(p)
	}
	return strings.Join(parts, ", ")
}

// patternsFP fingerprints an engine's checker selection for cache keys, so
// subset runs and full runs never share unit-level cache entries.
func (e *Engine) patternsFP() string {
	parts := make([]string, len(e.Checkers))
	for i, c := range e.Checkers {
		parts[i] = string(c.ID())
	}
	return strings.Join(parts, ",")
}
