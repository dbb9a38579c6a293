package clex

import (
	"testing"
	"unsafe"
)

// TestInternCanonicalizes: interned spellings share one backing string and
// keep their classification; unknown spellings pass through untouched.
func TestInternCanonicalizes(t *testing.T) {
	src := "of_node_put(np); custom_name(np);"
	toks, errs := Tokenize("t.c", src, Config{})
	if len(errs) != 0 {
		t.Fatalf("unexpected lex errors: %v", errs)
	}
	var put, np, custom *Token
	for i := range toks {
		switch toks[i].Text {
		case "of_node_put":
			put = &toks[i]
		case "np":
			np = &toks[i]
		case "custom_name":
			custom = &toks[i]
		}
	}
	if put == nil || np == nil || custom == nil {
		t.Fatalf("tokens missing from %v", toks)
	}
	for _, tok := range []*Token{put, np} {
		if e, ok := internTab[tok.Text]; !ok || unsafe.StringData(e.text) != unsafe.StringData(tok.Text) {
			t.Errorf("%q should share the intern table's copy", tok.Text)
		}
	}
	if _, ok := internTab[custom.Text]; ok || custom.Text != "custom_name" {
		t.Error("unknown spelling must pass through unchanged")
	}
}

// TestInternKeywordsClassified: the intern table must preserve keyword
// classification — "if" is a Keyword, never a plain Ident.
func TestInternKeywordsClassified(t *testing.T) {
	toks, _ := Tokenize("t.c", "if (ret) return;", Config{})
	if toks[0].Kind != Keyword || toks[0].Text != "if" {
		t.Fatalf("keyword misclassified: %+v", toks[0])
	}
	if toks[2].Kind != Ident || toks[2].Text != "ret" {
		t.Fatalf("common ident misclassified: %+v", toks[2])
	}
}

// TestZeroCopySpellingPositions: sliced spellings must not disturb position
// bookkeeping across lines.
func TestZeroCopySpellingPositions(t *testing.T) {
	toks, _ := Tokenize("t.c", "abc def\nxyz 123 \"str\" 'c'", Config{})
	want := []struct {
		text      string
		line, col int
	}{
		{"abc", 1, 1}, {"def", 1, 5},
		{"xyz", 2, 1}, {"123", 2, 5}, {`"str"`, 2, 9}, {"'c'", 2, 15},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Text != w.text || toks[i].Pos.Line != w.line || toks[i].Pos.Col != w.col {
			t.Errorf("token %d: got %q at %d:%d, want %q at %d:%d",
				i, toks[i].Text, toks[i].Pos.Line, toks[i].Pos.Col, w.text, w.line, w.col)
		}
	}
}
