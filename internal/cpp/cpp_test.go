package cpp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clex"
)

func expand(t *testing.T, files MapFiles, src string) *Result {
	t.Helper()
	p := New(files)
	res := p.Process("test.c", src)
	for _, e := range res.Errors {
		t.Fatalf("cpp error: %v", e)
	}
	return res
}

func text(toks []clex.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

func TestObjectLikeMacro(t *testing.T) {
	res := expand(t, nil, "#define N 10\nint a[N];")
	if got := text(res.Tokens); got != "int a [ 10 ] ;" {
		t.Fatalf("got %q", got)
	}
}

func TestFuncLikeMacro(t *testing.T) {
	res := expand(t, nil, "#define SQ(x) ((x)*(x))\nint y = SQ(a+1);")
	if got := text(res.Tokens); got != "int y = ( ( a + 1 ) * ( a + 1 ) ) ;" {
		t.Fatalf("got %q", got)
	}
}

func TestMacroNotCalledIsNotExpanded(t *testing.T) {
	res := expand(t, nil, "#define F(x) x\nint a = F;\n")
	if got := text(res.Tokens); got != "int a = F ;" {
		t.Fatalf("got %q", got)
	}
}

func TestNestedExpansionProvenance(t *testing.T) {
	src := `
#define of_find_matching_node(from) __of_find_matching_node(from)
#define for_each_matching_node(dn) \
	for (dn = of_find_matching_node(0); dn; dn = of_find_matching_node(dn))
void f(void) { for_each_matching_node(np) { } }
`
	res := expand(t, nil, src)
	// Find the expanded __of_find_matching_node token and check provenance.
	var found bool
	for _, tok := range res.Tokens {
		if tok.Text == "__of_find_matching_node" {
			found = true
			if !tok.FromMacro("for_each_matching_node") {
				t.Errorf("missing outer provenance: %v", tok.Origin)
			}
			if !tok.FromMacro("of_find_matching_node") {
				t.Errorf("missing inner provenance: %v", tok.Origin)
			}
			if len(tok.Origin) == 0 || tok.Origin[0] != "for_each_matching_node" {
				t.Errorf("outermost first: %v", tok.Origin)
			}
		}
	}
	if !found {
		t.Fatalf("expansion lost the call: %s", text(res.Tokens))
	}
}

func TestRecursionGuard(t *testing.T) {
	res := expand(t, nil, "#define X X\nint X;")
	if got := text(res.Tokens); got != "int X ;" {
		t.Fatalf("got %q", got)
	}
	res = expand(t, nil, "#define A B\n#define B A\nint A;")
	if got := text(res.Tokens); got != "int A ;" && got != "int B ;" {
		t.Fatalf("got %q", got)
	}
}

func TestStringize(t *testing.T) {
	res := expand(t, nil, "#define S(x) #x\nconst char *s = S(hello world);")
	joined := text(res.Tokens)
	if !strings.Contains(joined, `"hello world"`) {
		t.Fatalf("got %q", joined)
	}
}

func TestPaste(t *testing.T) {
	res := expand(t, nil, "#define GLUE(a,b) a##b\nint GLUE(foo,bar) = 1;")
	if got := text(res.Tokens); got != "int foobar = 1 ;" {
		t.Fatalf("got %q", got)
	}
}

func TestVariadic(t *testing.T) {
	res := expand(t, nil, "#define CALL(f, ...) f(__VA_ARGS__)\nCALL(g, 1, 2);")
	if got := text(res.Tokens); got != "g ( 1 , 2 ) ;" {
		t.Fatalf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	res := expand(t, nil, "#define N 1\n#undef N\nint a = N;")
	if got := text(res.Tokens); got != "int a = N ;" {
		t.Fatalf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	files := MapFiles{
		"include/linux/of.h": "#define of_node_get(n) __of_node_get(n)\n",
	}
	res := expand(t, files, "#include <linux/of.h>\nvoid f(void){ of_node_get(np); }")
	if !strings.Contains(text(res.Tokens), "__of_node_get ( np )") {
		t.Fatalf("got %q", text(res.Tokens))
	}
	if len(res.MissingIncludes) != 0 {
		t.Fatalf("missing includes: %v", res.MissingIncludes)
	}
}

func TestMissingIncludeRecorded(t *testing.T) {
	res := expand(t, nil, "#include <linux/slab.h>\nint x;")
	if len(res.MissingIncludes) != 1 || res.MissingIncludes[0] != "linux/slab.h" {
		t.Fatalf("missing = %v", res.MissingIncludes)
	}
	if got := text(res.Tokens); got != "int x ;" {
		t.Fatalf("got %q", got)
	}
}

func TestIncludeIdempotent(t *testing.T) {
	files := MapFiles{"a.h": "int once;\n"}
	res := expand(t, files, "#include \"a.h\"\n#include \"a.h\"\n")
	if got := text(res.Tokens); got != "int once ;" {
		t.Fatalf("got %q", got)
	}
}

func TestConditionals(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"#ifdef A\nint yes;\n#else\nint no;\n#endif", "int no ;"},
		{"#define A 1\n#ifdef A\nint yes;\n#endif", "int yes ;"},
		{"#ifndef A\nint yes;\n#endif", "int yes ;"},
		{"#if 1+1==2\nint yes;\n#endif", "int yes ;"},
		{"#if 0\nint a;\n#elif 1\nint b;\n#else\nint c;\n#endif", "int b ;"},
		{"#if defined(A)\nint a;\n#else\nint b;\n#endif", "int b ;"},
		{"#define A 2\n#if defined A && A > 1\nint a;\n#endif", "int a ;"},
		{"#if 0\n#if 1\nint a;\n#endif\nint b;\n#endif\nint c;", "int c ;"},
		{"#if (3*4)%5 == 2\nint a;\n#endif", "int a ;"},
		{"#if 1 ? 0 : 1\nint a;\n#else\nint b;\n#endif", "int b ;"},
		{"#if UNDEFINED\nint a;\n#else\nint b;\n#endif", "int b ;"},
		{"#if 0x10 == 16\nint a;\n#endif", "int a ;"},
		{"#if !0\nint a;\n#endif", "int a ;"},
	}
	for _, c := range cases {
		res := expand(t, nil, c.src)
		if got := text(res.Tokens); got != c.want {
			t.Errorf("%q: got %q, want %q", c.src, got, c.want)
		}
	}
}

func TestUnterminatedConditionalReported(t *testing.T) {
	p := New(nil)
	res := p.Process("t.c", "#if 1\nint a;")
	if len(res.Errors) == 0 {
		t.Fatal("want error for unterminated #if")
	}
}

func TestElifAfterElseReported(t *testing.T) {
	p := New(nil)
	res := p.Process("t.c", "#if 0\n#else\n#elif 1\n#endif\n")
	if len(res.Errors) == 0 {
		t.Fatal("want error for #elif after #else")
	}
}

func TestPredefine(t *testing.T) {
	p := New(nil)
	p.Define("__KERNEL__", "1")
	res := p.Process("t.c", "#ifdef __KERNEL__\nint k;\n#endif")
	if got := text(res.Tokens); got != "int k ;" {
		t.Fatalf("got %q", got)
	}
}

func TestIsLoopMacro(t *testing.T) {
	p := New(nil)
	res := p.Process("t.c", `
#define for_each_child_of_node(parent, child) \
	for (child = of_get_next_child(parent, 0); child; \
	     child = of_get_next_child(parent, child))
#define MAX(a,b) ((a)>(b)?(a):(b))
`)
	if m := res.Macros["for_each_child_of_node"]; m == nil || !m.IsLoopMacro() {
		t.Error("for_each_child_of_node should be a loop macro")
	}
	if m := res.Macros["MAX"]; m == nil || m.IsLoopMacro() {
		t.Error("MAX should not be a loop macro")
	}
}

func TestSmartLoopExpansionShape(t *testing.T) {
	// The full Listing 4 shape: expansion must yield a parseable for loop
	// with provenance on the embedded refcounting calls.
	src := `
#define for_each_matching_node(dn, matches) \
	for (dn = of_find_matching_node(0, matches); dn; \
	     dn = of_find_matching_node(dn, matches))
static int brcmstb_pm_probe(void)
{
	for_each_matching_node(dn, matches) {
		if (cond)
			break;
	}
	return 0;
}
`
	res := expand(t, nil, src)
	joined := text(res.Tokens)
	if !strings.Contains(joined, "for ( dn = of_find_matching_node ( 0 , matches )") {
		t.Fatalf("bad expansion: %q", joined)
	}
	// The break must NOT carry smartloop provenance (it is user-written).
	for _, tok := range res.Tokens {
		if tok.Kind == clex.Keyword && tok.Text == "break" && len(tok.Origin) != 0 {
			t.Errorf("break has provenance %v", tok.Origin)
		}
		if tok.Text == "of_find_matching_node" && !tok.FromMacro("for_each_matching_node") {
			t.Errorf("of_find_matching_node missing provenance")
		}
	}
}

func TestParseCInt(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "42": 42, "0x10": 16, "010": 8, "7UL": 7, "0xffU": 255,
	}
	for s, want := range cases {
		if got := parseCInt(s); got != want {
			t.Errorf("parseCInt(%q) = %d, want %d", s, got, want)
		}
	}
}

// Property: object-like macros substituting pure identifier bodies always
// produce the body, regardless of name.
func TestQuickObjectSubstitution(t *testing.T) {
	f := func(a, b uint8) bool {
		name := "M" + string(rune('A'+a%26))
		body := "v" + string(rune('a'+b%26))
		p := New(nil)
		res := p.Process("q.c", "#define "+name+" "+body+"\nint x = "+name+";")
		return text(res.Tokens) == "int x = "+body+" ;"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: expansion terminates for mutually recursive macro chains of
// arbitrary depth.
func TestQuickRecursionTerminates(t *testing.T) {
	f := func(n uint8) bool {
		depth := int(n%9) + 2
		var b strings.Builder
		for i := 0; i < depth; i++ {
			next := (i + 1) % depth
			b.WriteString("#define M")
			b.WriteString(string(rune('0' + i)))
			b.WriteString(" M")
			b.WriteString(string(rune('0' + next)))
			b.WriteString("\n")
		}
		b.WriteString("int x = M0;")
		p := New(nil)
		res := p.Process("q.c", b.String())
		return len(res.Tokens) == 5 // int x = M? ;
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
