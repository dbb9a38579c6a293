package cfg

import (
	"testing"
	"testing/quick"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

func buildFn(t *testing.T, src, name string) *Graph {
	t.Helper()
	pp := cpp.New(nil)
	res := pp.Process("t.c", src)
	for _, e := range res.Errors {
		t.Fatalf("cpp: %v", e)
	}
	f, errs := cparse.ParseFile("t.c", res.Tokens)
	for _, e := range errs {
		t.Fatalf("parse: %v", e)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDef); ok && fd.Name == name {
			g := Build(fd)
			if g == nil {
				t.Fatalf("nil graph for %s", name)
			}
			return g
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestStraightLine(t *testing.T) {
	g := buildFn(t, "int f(void) { a(); b(); return 0; }", "f")
	// Entry holds all three statements, linked to exit.
	if len(g.Entry.Stmts) != 3 {
		t.Fatalf("entry stmts = %d", len(g.Entry.Stmts))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry succs = %v", g.Entry.Succs)
	}
}

func TestIfElseShape(t *testing.T) {
	g := buildFn(t, `
int f(int x) {
	if (x) { a(); } else { b(); }
	c();
	return 0;
}`, "f")
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("cond succs = %d", len(g.Entry.Succs))
	}
	// Both branches must rejoin before c().
	paths := g.Paths(0)
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
}

func TestErrorBranchClassification(t *testing.T) {
	cases := []struct {
		cond      string
		thenIsErr bool
	}{
		{"ret < 0", true},
		{"err", true},
		{"!ptr", true},
		{"IS_ERR(ptr)", true},
		{"ptr == NULL", true},
		{"unlikely(!ptr)", true},
		{"x > y", false},
		{"ptr", false},
	}
	for _, c := range cases {
		g := buildFn(t, "int f(void) { if ("+c.cond+") { a(); } b(); return 0; }", "f")
		var found *Block
		for _, blk := range g.Blocks {
			for _, s := range blk.Stmts {
				if es, ok := s.(*cast.ExprStmt); ok {
					if ce, ok := es.X.(*cast.CallExpr); ok && ce.Callee() == "a" {
						found = blk
					}
				}
			}
		}
		if found == nil {
			t.Fatalf("%q: a() block not found", c.cond)
		}
		if found.IsError != c.thenIsErr {
			t.Errorf("cond %q: then.IsError = %v, want %v", c.cond, found.IsError, c.thenIsErr)
		}
	}
}

func TestErrorLabel(t *testing.T) {
	g := buildFn(t, `
int f(void) {
	if (bad)
		goto err_free;
	return 0;
err_free:
	cleanup();
	return -1;
}`, "f")
	var errBlk *Block
	for _, blk := range g.Blocks {
		if blk.Label == "err_free" {
			errBlk = blk
		}
	}
	if errBlk == nil || !errBlk.IsError {
		t.Fatalf("err_free block = %v", errBlk)
	}
	if len(errBlk.Preds) == 0 {
		t.Error("goto edge missing")
	}
}

func TestLoopShape(t *testing.T) {
	g := buildFn(t, `
int f(void) {
	int i;
	for (i = 0; i < 10; i++) {
		if (i == 5)
			break;
		work(i);
	}
	return 0;
}`, "f")
	var head *Block
	for _, blk := range g.Blocks {
		if blk.LoopHead {
			head = blk
		}
	}
	if head == nil {
		t.Fatal("no loop head")
	}
	// Back edge: some block inside the loop links to head.
	hasBack := false
	for _, p := range head.Preds {
		if p != g.Entry && p.ID > head.ID {
			hasBack = true
		}
	}
	if !hasBack {
		t.Error("no back edge to loop head")
	}
}

func TestBreakLeavesLoop(t *testing.T) {
	g := buildFn(t, `
int f(void) {
	while (cond()) {
		if (done)
			break;
	}
	after();
	return 0;
}`, "f")
	// There must be a path entry→…→break→after→exit.
	paths := g.Paths(0)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	foundBreakPath := false
	for _, p := range paths {
		hasBreak, hasAfter := false, false
		for _, blk := range p {
			for _, s := range blk.Stmts {
				if _, ok := s.(*cast.BreakStmt); ok {
					hasBreak = true
				}
				if es, ok := s.(*cast.ExprStmt); ok {
					if ce, ok := es.X.(*cast.CallExpr); ok && ce.Callee() == "after" {
						hasAfter = true
					}
				}
			}
		}
		if hasBreak && hasAfter {
			foundBreakPath = true
		}
	}
	if !foundBreakPath {
		t.Error("no path through break to after()")
	}
}

func TestSwitchShape(t *testing.T) {
	g := buildFn(t, `
int f(int x) {
	switch (x) {
	case 0:
		a();
		break;
	case 1:
		b();
	default:
		c();
	}
	return 0;
}`, "f")
	paths := g.Paths(0)
	// case0→after, case1→default (fallthrough)→after, default→after.
	if len(paths) != 3 {
		t.Errorf("paths = %d, want 3", len(paths))
	}
}

func TestSwitchNoDefaultSkips(t *testing.T) {
	g := buildFn(t, `
int f(int x) {
	switch (x) {
	case 0:
		a();
		break;
	}
	return 0;
}`, "f")
	paths := g.Paths(0)
	if len(paths) != 2 { // through case, and skipping it
		t.Errorf("paths = %d, want 2", len(paths))
	}
}

func TestDoWhile(t *testing.T) {
	g := buildFn(t, "int f(void) { do { a(); } while (c); return 0; }", "f")
	paths := g.Paths(0)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Body must execute at least once on every path.
	for _, p := range paths {
		found := false
		for _, blk := range p {
			for _, s := range blk.Stmts {
				if es, ok := s.(*cast.ExprStmt); ok {
					if ce, ok := es.X.(*cast.CallExpr); ok && ce.Callee() == "a" {
						found = true
					}
				}
			}
		}
		if !found {
			t.Error("path skips do-while body")
		}
	}
}

func TestReturnTerminatesBlock(t *testing.T) {
	g := buildFn(t, `
int f(int x) {
	if (x < 0)
		return -1;
	work();
	return 0;
}`, "f")
	paths := g.Paths(0)
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
}

func TestCondStmtPlacement(t *testing.T) {
	g := buildFn(t, "int f(int x) { if (x) a(); return 0; }", "f")
	var conds int
	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			if _, ok := s.(*cast.CondStmt); ok {
				conds++
			}
		}
	}
	if conds != 1 {
		t.Errorf("cond stmts = %d", conds)
	}
}

func TestSmartLoopMacroOnHead(t *testing.T) {
	g := buildFn(t, `
#define for_each_node(dn) \
	for (dn = first_node(); dn; dn = next_node(dn))
int f(void) {
	struct device_node *dn;
	for_each_node(dn) {
		use(dn);
	}
	return 0;
}`, "f")
	var head *Block
	for _, blk := range g.Blocks {
		if blk.LoopHead {
			head = blk
		}
	}
	if head == nil {
		t.Fatal("no loop head")
	}
	if head.FromMacro != "for_each_node" {
		t.Errorf("head.FromMacro = %q", head.FromMacro)
	}
}

func TestNullCheckedIdents(t *testing.T) {
	parseCond := func(src string) cast.Expr {
		pp := cpp.New(nil)
		res := pp.Process("t.c", "int f(void){ if ("+src+") a(); return 0; }")
		f, _ := cparse.ParseFile("t.c", res.Tokens)
		var cond cast.Expr
		cast.Walk(f, func(n cast.Node) bool {
			if is, ok := n.(*cast.IfStmt); ok {
				cond = is.Cond
			}
			return true
		})
		return cond
	}
	cases := []struct {
		src         string
		trueSide    []string
		falseSide   []string
		description string
	}{
		{"p", []string{"p"}, nil, "bare ident"},
		{"!p", nil, []string{"p"}, "negated"},
		{"p != NULL", []string{"p"}, nil, "ne null"},
		{"p == NULL", nil, []string{"p"}, "eq null"},
		{"p && q", []string{"p", "q"}, nil, "conjunction"},
		{"unlikely(!p)", nil, []string{"p"}, "unlikely wrapper"},
	}
	for _, c := range cases {
		tr, fa := NullCheckedIdents(parseCond(c.src))
		if !sameStrings(tr, c.trueSide) || !sameStrings(fa, c.falseSide) {
			t.Errorf("%s (%q): got %v/%v want %v/%v", c.description, c.src, tr, fa, c.trueSide, c.falseSide)
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNestedLoops(t *testing.T) {
	g := buildFn(t, `
int f(void) {
	int i, j;
	for (i = 0; i < 2; i++) {
		for (j = 0; j < 2; j++) {
			if (stop())
				break;
		}
		if (bad())
			continue;
		work();
	}
	return 0;
}`, "f")
	heads := 0
	for _, blk := range g.Blocks {
		if blk.LoopHead {
			heads++
		}
	}
	if heads != 2 {
		t.Errorf("loop heads = %d", heads)
	}
	if len(g.Paths(0)) == 0 {
		t.Error("no paths through nested loops")
	}
}

// Property: every graph has entry and exit, Paths finds a path from entry
// to exit, and edges are symmetric (succ/pred).
func TestQuickGraphWellFormed(t *testing.T) {
	templates := []string{
		"int f(int x){ if(x) a(); else b(); return 0; }",
		"int f(int x){ while(x--) w(); return 0; }",
		"int f(int x){ for(;;) { if (x) break; } return 0; }",
		"int f(int x){ do { x--; } while (x); return 0; }",
		"int f(int x){ switch(x){case 1: a(); break; default: b();} return 0; }",
		"int f(int x){ if (x) goto out; w(); out: return 0; }",
	}
	f := func(pick uint8) bool {
		src := templates[int(pick)%len(templates)]
		pp := cpp.New(nil)
		res := pp.Process("q.c", src)
		file, errs := cparse.ParseFile("q.c", res.Tokens)
		if len(errs) != 0 {
			return false
		}
		fd := file.Decls[0].(*cast.FuncDef)
		g := Build(fd)
		if g.Entry == nil || g.Exit == nil {
			return false
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
					return false
				}
			}
		}
		return len(g.Paths(0)) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
