// Package cast defines the abstract syntax tree for the kernel-C subset
// parsed by internal/cparse.
//
// Every node records its source position; statements additionally record the
// macro-origin chain of the token that opened them, so smartloop-injected
// code (anti-pattern P3) remains distinguishable after expansion.
package cast

import (
	"strings"

	"repro/internal/clex"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() clex.Pos
}

// ---- types ----

// Type is a (deliberately shallow) C type: a base name, pointer depth, and
// flags. The checkers only need to recognize which struct a pointer refers
// to; full type checking is out of scope.
type Type struct {
	Base    string // "int", "void", "struct device_node", typedef name
	Stars   int    // pointer depth
	IsConst bool
	// FuncPtr is set for function-pointer declarators; Params holds the
	// parameter types (used for inter-paired callback matching, P6).
	FuncPtr bool
	Params  []Type
}

// String renders the type in C-ish syntax.
func (t Type) String() string {
	var b strings.Builder
	if t.IsConst {
		b.WriteString("const ")
	}
	b.WriteString(t.Base)
	for i := 0; i < t.Stars; i++ {
		b.WriteString("*")
	}
	if t.FuncPtr {
		b.WriteString("(*)()")
	}
	return b.String()
}

// IsPointer reports whether the type is a pointer.
func (t Type) IsPointer() bool { return t.Stars > 0 || t.FuncPtr }

// StructName returns "foo" for "struct foo" base types, else "".
func (t Type) StructName() string {
	if rest, ok := strings.CutPrefix(t.Base, "struct "); ok {
		return rest
	}
	return ""
}

// ---- declarations ----

// File is one parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
}

// Pos returns a position naming the file (line 1).
func (f *File) Pos() clex.Pos { return clex.Pos{File: f.Name, Line: 1, Col: 1} }

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

// FuncDef is a function definition (or bodyless prototype when Body is nil).
type FuncDef struct {
	Name    string
	Ret     Type
	Params  []Param
	Body    *CompoundStmt // nil for prototypes
	Static  bool
	Inline  bool
	NamePos clex.Pos
}

// Param is one function parameter.
type Param struct {
	Name string
	Type Type
	Pos  clex.Pos
}

func (d *FuncDef) Pos() clex.Pos { return d.NamePos }
func (d *FuncDef) declNode()     {}

// StructDecl declares a struct (or union) type.
type StructDecl struct {
	Name    string
	Union   bool
	Fields  []Field
	NamePos clex.Pos
}

// Field is one struct member.
type Field struct {
	Name string
	Type Type
	Pos  clex.Pos
}

func (d *StructDecl) Pos() clex.Pos { return d.NamePos }
func (d *StructDecl) declNode()     {}

// FieldType returns the type of the named field and whether it exists.
func (d *StructDecl) FieldType(name string) (Type, bool) {
	for _, f := range d.Fields {
		if f.Name == name {
			return f.Type, true
		}
	}
	return Type{}, false
}

// TypedefDecl records a typedef alias.
type TypedefDecl struct {
	Name    string
	Type    Type
	NamePos clex.Pos
}

func (d *TypedefDecl) Pos() clex.Pos { return d.NamePos }
func (d *TypedefDecl) declNode()     {}

// VarDecl is a global variable definition. Init is nil when absent;
// InitList holds designated initializers for struct initialization (needed
// to bind function-pointer callbacks, P6).
type VarDecl struct {
	Name    string
	Type    Type
	Init    Expr
	Inits   []FieldInit // designated initializer entries, if any
	Static  bool
	NamePos clex.Pos
}

// FieldInit is one `.field = value` designated-initializer entry.
type FieldInit struct {
	Field string
	Value Expr
	Pos   clex.Pos
}

func (d *VarDecl) Pos() clex.Pos { return d.NamePos }
func (d *VarDecl) declNode()     {}

// EnumDecl records an enum; only the constant names matter to us.
type EnumDecl struct {
	Name    string
	Consts  []string
	NamePos clex.Pos
}

func (d *EnumDecl) Pos() clex.Pos { return d.NamePos }
func (d *EnumDecl) declNode()     {}

// ---- statements ----

// Stmt is a statement node. Origin carries the macro-provenance chain of the
// statement's first token (empty for literal source).
type Stmt interface {
	Node
	stmtNode()
	// MacroOrigin returns the provenance chain (outermost first).
	MacroOrigin() []string
}

type stmtBase struct {
	StartPos clex.Pos
	Origin   []string
}

func (s *stmtBase) Pos() clex.Pos         { return s.StartPos }
func (s *stmtBase) MacroOrigin() []string { return s.Origin }
func (s *stmtBase) stmtNode()             {}

// CompoundStmt is a `{ ... }` block.
type CompoundStmt struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt is a local variable declaration, possibly with an initializer.
type DeclStmt struct {
	stmtBase
	Name string
	Type Type
	Init Expr // nil if absent
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if/else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

// ForStmt covers C for loops. Init may be a DeclStmt or ExprStmt or nil.
type ForStmt struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// SwitchStmt is a switch; cases appear as CaseStmt labels in the body.
type SwitchStmt struct {
	stmtBase
	Tag  Expr
	Body Stmt
}

// CaseStmt is a `case X:` or `default:` label.
type CaseStmt struct {
	stmtBase
	Value     Expr // nil for default
	IsDefault bool
}

// ReturnStmt is a return, with optional value.
type ReturnStmt struct {
	stmtBase
	Value Expr // nil for bare return
}

// BreakStmt is a break.
type BreakStmt struct{ stmtBase }

// ContinueStmt is a continue.
type ContinueStmt struct{ stmtBase }

// GotoStmt is a goto.
type GotoStmt struct {
	stmtBase
	Label string
}

// LabelStmt is `name:` followed by a statement.
type LabelStmt struct {
	stmtBase
	Name string
	Stmt Stmt
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ stmtBase }

// CondStmt is a synthetic statement used by the CFG builder to place branch
// and loop conditions into basic-block statement order. It never appears in
// parser output.
type CondStmt struct {
	stmtBase
	X Expr
}

// ---- expressions ----

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

type exprBase struct{ StartPos clex.Pos }

func (e *exprBase) Pos() clex.Pos { return e.StartPos }
func (e *exprBase) exprNode()     {}

// Ident is an identifier use. TokenOrigin carries the macro-provenance chain
// of the underlying token (outermost first); CallExpr copies it so smartloop
// injected calls stay recognizable.
type Ident struct {
	exprBase
	Name        string
	TokenOrigin []string
}

// Lit is an integer, float, char, or string literal.
type Lit struct {
	exprBase
	Kind clex.Kind // IntLit, FloatLit, CharLit, StringLit
	Text string
}

// CallExpr is a function call. Origin carries the macro provenance of the
// callee token (smartloop detection).
type CallExpr struct {
	exprBase
	Fun    Expr
	Args   []Expr
	Origin []string
}

// Callee returns the called function name when the callee is a simple
// identifier, else "".
func (c *CallExpr) Callee() string {
	if id, ok := c.Fun.(*Ident); ok {
		return id.Name
	}
	return ""
}

// FromMacro reports whether the call was injected by the named macro.
func (c *CallExpr) FromMacro(name string) bool {
	for _, m := range c.Origin {
		if m == name {
			return true
		}
	}
	return false
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	exprBase
	Op   clex.Kind
	X, Y Expr
}

// UnaryExpr is a prefix or postfix unary operation.
type UnaryExpr struct {
	exprBase
	Op      clex.Kind
	X       Expr
	Postfix bool
}

// AssignExpr is assignment (possibly compound: +=, etc.).
type AssignExpr struct {
	exprBase
	Op  clex.Kind // Assign, PlusAssign, ...
	LHS Expr
	RHS Expr
}

// MemberExpr is x.name or x->name.
type MemberExpr struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
}

// IndexExpr is x[i].
type IndexExpr struct {
	exprBase
	X, Index Expr
}

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	exprBase
	X Expr
}

// CondExpr is the ternary operator.
type CondExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// CastExpr is (type)x.
type CastExpr struct {
	exprBase
	Type Type
	X    Expr
}

// SizeofExpr is sizeof(x) or sizeof(type).
type SizeofExpr struct {
	exprBase
	X    Expr // nil when Type used
	Type Type
}

// CommaExpr is `a, b`.
type CommaExpr struct {
	exprBase
	X, Y Expr
}

// InitListExpr is `{ ... }` in expression position.
type InitListExpr struct {
	exprBase
	Elems  []Expr
	Fields []FieldInit // designated entries, if present
}
