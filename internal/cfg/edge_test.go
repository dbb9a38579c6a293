package cfg

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

func TestGotoWeb(t *testing.T) {
	// Criss-crossing gotos (irreducible control flow) must still build a
	// well-formed graph and terminate path enumeration.
	g := buildFn(t, `
int weave(int x)
{
	if (x == 1)
		goto one;
	if (x == 2)
		goto two;
	return 0;
one:
	if (x > 10)
		goto two;
	return 1;
two:
	if (x < -10)
		goto one;
	return 2;
}`, "weave")
	paths := g.Paths(0)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, pr := range s.Preds {
				if pr == b {
					found = true
				}
			}
			if !found {
				t.Fatal("asymmetric edge")
			}
		}
	}
}

func TestUnreachableCodeStillInGraph(t *testing.T) {
	g := buildFn(t, `
int f(void)
{
	return 1;
	dead_call();
	return 2;
}`, "f")
	// The dead statement exists in some block even though no path reaches
	// it.
	var found bool
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if es, ok := s.(*cast.ExprStmt); ok {
				if ce, ok := es.X.(*cast.CallExpr); ok && ce.Callee() == "dead_call" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("unreachable statement dropped from the graph")
	}
}

func TestBackwardGotoLoop(t *testing.T) {
	g := buildFn(t, `
int f(void)
{
	int n = 0;
again:
	n++;
	if (n < 3)
		goto again;
	return n;
}`, "f")
	paths := g.Paths(0)
	if len(paths) == 0 {
		t.Fatal("backward goto killed path enumeration")
	}
}

func TestInfiniteLoopWithBreak(t *testing.T) {
	g := buildFn(t, `
int f(void)
{
	for (;;) {
		if (done())
			break;
		work();
	}
	return 0;
}`, "f")
	if len(g.Paths(0)) == 0 {
		t.Fatal("exit unreachable through break")
	}
}

func TestEmptyFunction(t *testing.T) {
	g := buildFn(t, "void f(void) { }", "f")
	paths := g.Paths(0)
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
}

func TestPathCapRespected(t *testing.T) {
	// 12 sequential ifs = 4096 paths; the cap must bound enumeration.
	src := "int f(int x) {\n"
	for i := 0; i < 12; i++ {
		src += "\tif (x) a();\n"
	}
	src += "\treturn 0;\n}"
	g := buildFn(t, src, "f")
	if got := len(g.Paths(100)); got > 100 {
		t.Fatalf("paths = %d, cap 100", got)
	}
	if got := len(g.Paths(0)); got > DefaultMaxPaths {
		t.Fatalf("paths = %d exceeds default cap", got)
	}
}

func TestBuildNilForPrototype(t *testing.T) {
	pp := cpp.New(nil)
	res := pp.Process("t.c", "int proto(int x);")
	f, _ := cparse.ParseFile("t.c", res.Tokens)
	fd := f.Decls[0].(*cast.FuncDef)
	if Build(fd) != nil {
		t.Fatal("prototype should build nil graph")
	}
}

func TestElseIfChainClassification(t *testing.T) {
	g := buildFn(t, `
int f(int err, int mode)
{
	if (err < 0) {
		bail();
	} else if (mode == 2) {
		two();
	} else {
		other();
	}
	return 0;
}`, "f")
	// Exactly the first branch is an error block.
	errBlocks := 0
	for _, b := range g.Blocks {
		if b.IsError {
			errBlocks++
		}
	}
	if errBlocks != 1 {
		t.Errorf("error blocks = %d, want 1", errBlocks)
	}
}
