package clex

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	toks, errs := Tokenize("test.c", src, Config{})
	for _, e := range errs {
		t.Fatalf("unexpected lex error: %v", e)
	}
	return toks
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks := lexAll(t, "static int of_node_get(struct device_node *np)")
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "static"}, {Keyword, "int"}, {Ident, "of_node_get"},
		{LParen, "("}, {Keyword, "struct"}, {Ident, "device_node"},
		{Star, "*"}, {Ident, "np"}, {RParen, ")"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %s(%q)", i, toks[i], w.kind, w.text)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"42", IntLit},
		{"0x1f", IntLit},
		{"0755", IntLit},
		{"42UL", IntLit},
		{"1u", IntLit},
		{"3.14", FloatLit},
		{"1e10", FloatLit},
		{"2.5f", FloatLit},
		{"1E-3", FloatLit},
	}
	for _, c := range cases {
		toks := lexAll(t, c.src)
		if len(toks) != 1 {
			t.Errorf("%q: got %d tokens %v, want 1", c.src, len(toks), toks)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("%q: got %v, want %s(%q)", c.src, toks[0], c.kind, c.src)
		}
	}
}

func TestStringAndCharLiterals(t *testing.T) {
	toks := lexAll(t, `"hello \"world\"" 'a' '\n' '\''`)
	wantKinds := []Kind{StringLit, CharLit, CharLit, CharLit}
	got := kinds(toks)
	if len(got) != len(wantKinds) {
		t.Fatalf("got %v", toks)
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] {
			t.Errorf("token %d kind = %v, want %v", i, got[i], wantKinds[i])
		}
	}
	if toks[0].Text != `"hello \"world\""` {
		t.Errorf("string text = %q", toks[0].Text)
	}
}

func TestUnterminatedString(t *testing.T) {
	_, errs := Tokenize("t.c", "\"abc\n", Config{})
	if len(errs) == 0 {
		t.Fatal("want error for unterminated string")
	}
}

func TestCommentsDroppedByDefault(t *testing.T) {
	toks := lexAll(t, "a /* block */ b // line\nc")
	if len(toks) != 3 {
		t.Fatalf("got %v, want idents a b c", toks)
	}
	for i, name := range []string{"a", "b", "c"} {
		if toks[i].Text != name {
			t.Errorf("token %d = %v", i, toks[i])
		}
	}
}

func TestCommentsRetained(t *testing.T) {
	toks, _ := Tokenize("t.c", "a /* x */ b", Config{KeepComments: true})
	if len(toks) != 3 || toks[1].Kind != Comment {
		t.Fatalf("got %v", toks)
	}
}

func TestNewlinesRetained(t *testing.T) {
	toks, _ := Tokenize("t.c", "#define X 1\nint y;", Config{KeepNewlines: true})
	var sawNewline bool
	for _, tok := range toks {
		if tok.Kind == Newline {
			sawNewline = true
		}
	}
	if !sawNewline {
		t.Fatalf("no newline token in %v", toks)
	}
}

func TestLineContinuation(t *testing.T) {
	toks, _ := Tokenize("t.c", "#define M(x) \\\n  foo(x)", Config{KeepNewlines: true})
	// The backslash-newline must not produce a Newline token.
	for _, tok := range toks {
		if tok.Kind == Newline {
			t.Fatalf("line continuation produced a newline token: %v", toks)
		}
	}
}

func TestMultiBytePunctuation(t *testing.T) {
	toks := lexAll(t, "a->b <<= 1; c ... ## != >= ++")
	want := []Kind{Ident, Arrow, Ident, ShlAssign, IntLit, Semi, Ident, Ellipsis, HashHash, Ne, Ge, Inc}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	toks := lexAll(t, "int x;\n  y = 1;")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	// 'y' is on line 2, col 3.
	var y Token
	for _, tok := range toks {
		if tok.Text == "y" {
			y = tok
		}
	}
	if y.Pos.Line != 2 || y.Pos.Col != 3 {
		t.Errorf("y at %v, want 2:3", y.Pos)
	}
	if y.Pos.File != "test.c" {
		t.Errorf("file = %q", y.Pos.File)
	}
}

func TestLeadingSpace(t *testing.T) {
	toks := lexAll(t, "a b(c)")
	// b has leading space, ( does not.
	if !toks[1].LeadingSpace {
		t.Error("b should have leading space")
	}
	if toks[2].LeadingSpace {
		t.Error("( should not have leading space")
	}
}

func TestHashToken(t *testing.T) {
	toks, _ := Tokenize("t.c", "#include <linux/of.h>", Config{KeepNewlines: true})
	if toks[0].Kind != Hash {
		t.Fatalf("got %v", toks)
	}
	if toks[1].Text != "include" {
		t.Fatalf("got %v", toks)
	}
}

func TestTokenFromMacro(t *testing.T) {
	tok := Token{Origin: []string{"for_each_child_of_node", "of_find_matching_node"}}
	if !tok.FromMacro("for_each_child_of_node") {
		t.Error("FromMacro outer failed")
	}
	if !tok.FromMacro("of_find_matching_node") {
		t.Error("FromMacro inner failed")
	}
	if tok.FromMacro("other") {
		t.Error("FromMacro false positive")
	}
}

func TestKernelSnippetRoundTrip(t *testing.T) {
	src := `
static int stm32_crc_remove(struct platform_device *pdev)
{
	struct stm32_crc *crc = platform_get_drvdata(pdev);
	int ret = pm_runtime_get_sync(crc->dev);
	if (ret < 0)
		return ret;
	pm_runtime_put_noidle(crc->dev);
	return 0;
}
`
	toks := lexAll(t, src)
	if len(toks) < 30 {
		t.Fatalf("too few tokens: %d", len(toks))
	}
	// No token text should be empty.
	for _, tok := range toks {
		if tok.Text == "" {
			t.Errorf("empty token text for %v at %v", tok.Kind, tok.Pos)
		}
	}
}

// Property: lexing never loses identifier-like words — every whitespace
// separated identifier in a generated source appears in the token stream in
// order.
func TestQuickIdentPreservation(t *testing.T) {
	f := func(words []uint8) bool {
		var names []string
		var b strings.Builder
		for i, w := range words {
			name := "id" + string(rune('a'+int(w)%26))
			names = append(names, name)
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(name)
		}
		toks, errs := Tokenize("q.c", b.String(), Config{})
		if len(errs) != 0 {
			return false
		}
		if len(toks) != len(names) {
			return false
		}
		for i, n := range names {
			if toks[i].Text != n || toks[i].Kind != Ident {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lexer terminates and positions are monotonically non-decreasing
// for arbitrary printable input.
func TestQuickMonotonicPositions(t *testing.T) {
	f := func(raw []byte) bool {
		// Map arbitrary bytes into printable ASCII + newline to avoid
		// degenerate inputs that are all errors.
		src := make([]byte, len(raw))
		for i, b := range raw {
			src[i] = byte(32 + int(b)%95)
			if b%17 == 0 {
				src[i] = '\n'
			}
		}
		toks, _ := Tokenize("q.c", string(src), Config{})
		prev := Pos{Line: 0, Col: 0}
		for _, tok := range toks {
			if tok.Pos.Line < prev.Line {
				return false
			}
			if tok.Pos.Line == prev.Line && tok.Pos.Col < prev.Col {
				return false
			}
			prev = tok.Pos
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
