package cparse

import (
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/cpp"
)

// TestParseStatsCountWindows: the chunks that back call arguments and
// compound statements are part of what a parsed tree holds, so
// ParseFileArena must report them alongside the AST slabs — the parse
// memo's cache charge is built on these counters. A small file with one
// call and one compound statement takes exactly one chunk of each window
// kind, each large enough for its window.
func TestParseStatsCountWindows(t *testing.T) {
	res := cpp.New(nil).Process("t.c", "void f(void) { g(1, 2); }\n")
	var all, slabs arena.Stats
	if _, errs := ParseFileArena("t.c", res.Tokens, &all); len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	p := New("t.c", res.Tokens)
	p.ast.setStats(&slabs)
	p.Parse()

	chunks := all.Chunks.Load() - slabs.Chunks.Load()
	bytes := all.Bytes.Load() - slabs.Bytes.Load()
	if chunks != 2 {
		t.Errorf("window chunks counted: %d, want 2 (one argument chunk, one statement chunk)", chunks)
	}
	var x cast.Expr
	if floor := int64((4 + 8) * unsafe.Sizeof(x)); bytes < floor {
		t.Errorf("window bytes counted: %d, want at least %d (a 4-argument and an 8-statement window)", bytes, floor)
	}
}
