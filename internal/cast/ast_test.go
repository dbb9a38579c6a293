package cast

import (
	"testing"

	"repro/internal/clex"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		ty   Type
		want string
	}{
		{Type{Base: "int"}, "int"},
		{Type{Base: "struct device_node", Stars: 1}, "struct device_node*"},
		{Type{Base: "char", Stars: 2, IsConst: true}, "const char**"},
		{Type{Base: "int", FuncPtr: true}, "int(*)()"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("Type%+v.String() = %q, want %q", c.ty, got, c.want)
		}
	}
}

func TestTypeStructName(t *testing.T) {
	if got := (Type{Base: "struct kref", Stars: 1}).StructName(); got != "kref" {
		t.Errorf("StructName = %q", got)
	}
	if got := (Type{Base: "int"}).StructName(); got != "" {
		t.Errorf("StructName = %q", got)
	}
}

func TestTypeIsPointer(t *testing.T) {
	if (Type{Base: "int"}).IsPointer() {
		t.Error("int is not a pointer")
	}
	if !(Type{Base: "int", Stars: 1}).IsPointer() {
		t.Error("int* is a pointer")
	}
	if !(Type{Base: "int", FuncPtr: true}).IsPointer() {
		t.Error("func ptr is a pointer")
	}
}

func TestStructFieldType(t *testing.T) {
	sd := &StructDecl{Name: "s", Fields: []Field{
		{Name: "a", Type: Type{Base: "int"}},
		{Name: "b", Type: Type{Base: "struct kref"}},
	}}
	if ft, ok := sd.FieldType("b"); !ok || ft.Base != "struct kref" {
		t.Errorf("FieldType(b) = %v %v", ft, ok)
	}
	if _, ok := sd.FieldType("zz"); ok {
		t.Error("FieldType(zz) should be missing")
	}
}

func TestWalkPrune(t *testing.T) {
	inner := &CallExpr{Fun: &Ident{Name: "g"}}
	outer := &CallExpr{Fun: &Ident{Name: "f"}, Args: []Expr{inner}}
	var seen []string
	Walk(outer, func(n Node) bool {
		if c, ok := n.(*CallExpr); ok {
			seen = append(seen, c.Callee())
			return c.Callee() != "f" // prune below f
		}
		return true
	})
	if len(seen) != 1 || seen[0] != "f" {
		t.Errorf("seen = %v", seen)
	}
}

func TestCallExprHelpers(t *testing.T) {
	c := &CallExpr{Fun: &Ident{Name: "of_node_get"}, Origin: []string{"for_each_child_of_node"}}
	if c.Callee() != "of_node_get" {
		t.Errorf("Callee = %q", c.Callee())
	}
	if !c.FromMacro("for_each_child_of_node") || c.FromMacro("nope") {
		t.Error("FromMacro wrong")
	}
	indirect := &CallExpr{Fun: &MemberExpr{X: &Ident{Name: "ops"}, Name: "probe", Arrow: true}}
	if indirect.Callee() != "" {
		t.Errorf("indirect Callee = %q", indirect.Callee())
	}
}

func TestExprStringCoverage(t *testing.T) {
	e := &CondExpr{
		Cond: &BinaryExpr{Op: clex.Lt, X: &Ident{Name: "a"}, Y: &Lit{Kind: clex.IntLit, Text: "0"}},
		Then: &UnaryExpr{Op: clex.Minus, X: &Ident{Name: "a"}},
		Else: &Ident{Name: "a"},
	}
	if got := ExprString(e); got != "a < 0 ? -a : a" {
		t.Errorf("got %q", got)
	}
	il := &InitListExpr{Fields: []FieldInit{{Field: "probe", Value: &Ident{Name: "p"}}}}
	if got := ExprString(il); got != "{ .probe = p }" {
		t.Errorf("got %q", got)
	}
	if got := ExprString(&SizeofExpr{Type: Type{Base: "int"}}); got != "sizeof(int)" {
		t.Errorf("got %q", got)
	}
	if got := ExprString(nil); got != "" {
		t.Errorf("nil expr = %q", got)
	}
}

func TestBaseIdentNonIdentRoot(t *testing.T) {
	// Call result has no identifier root.
	e := &MemberExpr{X: &CallExpr{Fun: &Ident{Name: "get_dev"}}, Name: "x"}
	if id := BaseIdent(e); id != nil {
		t.Errorf("BaseIdent = %v, want nil", id)
	}
}

func TestWalkNilSafety(t *testing.T) {
	// IfStmt with nil Else and nil-typed children must not panic.
	s := &IfStmt{Cond: &Ident{Name: "c"}, Then: &ExprStmt{X: &Ident{Name: "x"}}}
	count := 0
	Walk(s, func(Node) bool { count++; return true })
	if count != 4 { // if, cond, exprstmt, x
		t.Errorf("count = %d", count)
	}
	Walk(nil, func(Node) bool { t.Fatal("visited nil"); return true })
}

// TestWalkAndPrintAllNodeKinds round-trips every statement and expression
// kind through the parser-free constructors, exercising Walk and ExprString
// over the full node taxonomy.
func TestWalkAndPrintAllNodeKinds(t *testing.T) {
	x := &Ident{Name: "x"}
	lit := &Lit{Kind: clex.IntLit, Text: "1"}
	exprs := []Expr{
		x, lit,
		&CallExpr{Fun: &Ident{Name: "f"}, Args: []Expr{x, lit}},
		&BinaryExpr{Op: clex.Plus, X: x, Y: lit},
		&UnaryExpr{Op: clex.Star, X: x},
		&UnaryExpr{Op: clex.Inc, X: x, Postfix: true},
		&AssignExpr{Op: clex.PlusAssign, LHS: x, RHS: lit},
		&MemberExpr{X: x, Name: "m", Arrow: true},
		&MemberExpr{X: x, Name: "m"},
		&IndexExpr{X: x, Index: lit},
		&ParenExpr{X: x},
		&CondExpr{Cond: x, Then: lit, Else: x},
		&CastExpr{Type: Type{Base: "int", Stars: 1}, X: x},
		&SizeofExpr{X: x},
		&SizeofExpr{Type: Type{Base: "long"}},
		&CommaExpr{X: x, Y: lit},
		&InitListExpr{Elems: []Expr{lit}, Fields: []FieldInit{{Field: "a", Value: x}}},
	}
	for _, e := range exprs {
		if s := ExprString(e); s == "" {
			t.Errorf("%T renders empty", e)
		}
		n := 0
		Walk(e, func(Node) bool { n++; return true })
		if n == 0 {
			t.Errorf("%T not walked", e)
		}
	}

	body := &CompoundStmt{Stmts: []Stmt{
		&DeclStmt{Name: "v", Type: Type{Base: "int"}, Init: lit},
		&ExprStmt{X: x},
		&IfStmt{Cond: x, Then: &ExprStmt{X: lit}, Else: &EmptyStmt{}},
		&ForStmt{Init: &ExprStmt{X: x}, Cond: x, Post: lit, Body: &EmptyStmt{}},
		&WhileStmt{Cond: x, Body: &EmptyStmt{}},
		&DoWhileStmt{Body: &EmptyStmt{}, Cond: x},
		&SwitchStmt{Tag: x, Body: &CompoundStmt{Stmts: []Stmt{
			&CaseStmt{Value: lit},
			&CaseStmt{IsDefault: true},
			&BreakStmt{},
		}}},
		&ReturnStmt{Value: x},
		&ContinueStmt{},
		&GotoStmt{Label: "out"},
		&LabelStmt{Name: "out", Stmt: &EmptyStmt{}},
		&CondStmt{X: x},
	}}
	count := 0
	Walk(body, func(Node) bool { count++; return true })
	if count < 25 {
		t.Errorf("walked only %d nodes", count)
	}

	file := &File{Name: "f.c", Decls: []Decl{
		&FuncDef{Name: "fn", Ret: Type{Base: "void"}, Body: body},
		&StructDecl{Name: "s", Fields: []Field{{Name: "a", Type: Type{Base: "int"}}}},
		&TypedefDecl{Name: "t", Type: Type{Base: "int"}},
		&VarDecl{Name: "g", Type: Type{Base: "int"}, Init: lit,
			Inits: []FieldInit{{Field: "a", Value: x}}},
		&EnumDecl{Name: "e", Consts: []string{"A"}},
	}}
	if file.Pos().Line <= 0 {
		t.Error("file pos invalid")
	}
	fileNodes := 0
	Walk(file, func(Node) bool { fileNodes++; return true })
	if fileNodes < 30 {
		t.Errorf("file walked %d nodes", fileNodes)
	}
	// Positions and origins on statements.
	cs := &CondStmt{X: x}
	cs.StartPos, cs.Origin = clex.Pos{Line: 7, Col: 3}, []string{"mac"}
	if cs.Pos().Line != 7 || len(cs.MacroOrigin()) != 1 {
		t.Errorf("cond stmt base: %v %v", cs.Pos(), cs.MacroOrigin())
	}
	// Calls/Idents helpers over the file.
	if len(Calls(file)) == 0 {
		// body has one call? no CallExpr in body — add via expression check
		_ = Idents(file)
	}
}
