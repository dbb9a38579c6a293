package cast

// Visit is called for every node during a Walk. Returning false prunes the
// subtree below the node.
type Visit func(Node) bool

// Walk performs a pre-order traversal of the tree rooted at n, calling v for
// each node. Nil children are skipped.
func Walk(n Node, v Visit) {
	if n == nil || isNilNode(n) {
		return
	}
	if !v(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			Walk(d, v)
		}
	case *FuncDef:
		if x.Body != nil {
			Walk(x.Body, v)
		}
	case *VarDecl:
		Walk(x.Init, v)
		for _, fi := range x.Inits {
			Walk(fi.Value, v)
		}
	case *StructDecl, *TypedefDecl, *EnumDecl:
		// leaves

	case *CompoundStmt:
		for _, s := range x.Stmts {
			Walk(s, v)
		}
	case *DeclStmt:
		Walk(x.Init, v)
	case *ExprStmt:
		Walk(x.X, v)
	case *IfStmt:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *ForStmt:
		Walk(x.Init, v)
		Walk(x.Cond, v)
		Walk(x.Post, v)
		Walk(x.Body, v)
	case *WhileStmt:
		Walk(x.Cond, v)
		Walk(x.Body, v)
	case *DoWhileStmt:
		Walk(x.Body, v)
		Walk(x.Cond, v)
	case *SwitchStmt:
		Walk(x.Tag, v)
		Walk(x.Body, v)
	case *CaseStmt:
		Walk(x.Value, v)
	case *ReturnStmt:
		Walk(x.Value, v)
	case *CondStmt:
		Walk(x.X, v)
	case *LabelStmt:
		Walk(x.Stmt, v)
	case *BreakStmt, *ContinueStmt, *GotoStmt, *EmptyStmt:
		// leaves

	case *Ident, *Lit:
		// leaves
	case *CallExpr:
		Walk(x.Fun, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *BinaryExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *UnaryExpr:
		Walk(x.X, v)
	case *AssignExpr:
		Walk(x.LHS, v)
		Walk(x.RHS, v)
	case *MemberExpr:
		Walk(x.X, v)
	case *IndexExpr:
		Walk(x.X, v)
		Walk(x.Index, v)
	case *ParenExpr:
		Walk(x.X, v)
	case *CondExpr:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		Walk(x.Else, v)
	case *CastExpr:
		Walk(x.X, v)
	case *SizeofExpr:
		Walk(x.X, v)
	case *CommaExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *InitListExpr:
		for _, e := range x.Elems {
			Walk(e, v)
		}
		for _, fi := range x.Fields {
			Walk(fi.Value, v)
		}
	}
}

// isNilNode guards against typed-nil interface values (e.g. Expr(nil) stored
// as (*Ident)(nil) never happens in our parser, but Stmt fields may hold a
// nil concrete pointer after error recovery).
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *CompoundStmt:
		return x == nil
	case *IfStmt:
		return x == nil
	case *ExprStmt:
		return x == nil
	}
	return false
}

// Calls returns all call expressions under n, in pre-order.
func Calls(n Node) []*CallExpr {
	return CallsInto(nil, n)
}

// CallsInto appends all call expressions under n to dst, in pre-order, and
// returns the extended slice. Callers that scan many functions pass the
// previous result re-sliced to zero length so one buffer amortizes across
// the whole sweep. It recurses directly rather than going through Walk: the
// dst-capturing closure Walk would need costs one heap allocation per call,
// and discovery observation runs this once per function. The child
// enumeration below must mirror Walk's.
func CallsInto(dst []*CallExpr, n Node) []*CallExpr {
	if n == nil || isNilNode(n) {
		return dst
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			dst = CallsInto(dst, d)
		}
	case *FuncDef:
		if x.Body != nil {
			dst = CallsInto(dst, x.Body)
		}
	case *VarDecl:
		dst = CallsInto(dst, x.Init)
		for _, fi := range x.Inits {
			dst = CallsInto(dst, fi.Value)
		}
	case *CompoundStmt:
		for _, s := range x.Stmts {
			dst = CallsInto(dst, s)
		}
	case *DeclStmt:
		dst = CallsInto(dst, x.Init)
	case *ExprStmt:
		dst = CallsInto(dst, x.X)
	case *IfStmt:
		dst = CallsInto(dst, x.Cond)
		dst = CallsInto(dst, x.Then)
		dst = CallsInto(dst, x.Else)
	case *ForStmt:
		dst = CallsInto(dst, x.Init)
		dst = CallsInto(dst, x.Cond)
		dst = CallsInto(dst, x.Post)
		dst = CallsInto(dst, x.Body)
	case *WhileStmt:
		dst = CallsInto(dst, x.Cond)
		dst = CallsInto(dst, x.Body)
	case *DoWhileStmt:
		dst = CallsInto(dst, x.Body)
		dst = CallsInto(dst, x.Cond)
	case *SwitchStmt:
		dst = CallsInto(dst, x.Tag)
		dst = CallsInto(dst, x.Body)
	case *CaseStmt:
		dst = CallsInto(dst, x.Value)
	case *ReturnStmt:
		dst = CallsInto(dst, x.Value)
	case *CondStmt:
		dst = CallsInto(dst, x.X)
	case *LabelStmt:
		dst = CallsInto(dst, x.Stmt)
	case *CallExpr:
		dst = append(dst, x)
		dst = CallsInto(dst, x.Fun)
		for _, a := range x.Args {
			dst = CallsInto(dst, a)
		}
	case *BinaryExpr:
		dst = CallsInto(dst, x.X)
		dst = CallsInto(dst, x.Y)
	case *UnaryExpr:
		dst = CallsInto(dst, x.X)
	case *AssignExpr:
		dst = CallsInto(dst, x.LHS)
		dst = CallsInto(dst, x.RHS)
	case *MemberExpr:
		dst = CallsInto(dst, x.X)
	case *IndexExpr:
		dst = CallsInto(dst, x.X)
		dst = CallsInto(dst, x.Index)
	case *ParenExpr:
		dst = CallsInto(dst, x.X)
	case *CondExpr:
		dst = CallsInto(dst, x.Cond)
		dst = CallsInto(dst, x.Then)
		dst = CallsInto(dst, x.Else)
	case *CastExpr:
		dst = CallsInto(dst, x.X)
	case *SizeofExpr:
		dst = CallsInto(dst, x.X)
	case *CommaExpr:
		dst = CallsInto(dst, x.X)
		dst = CallsInto(dst, x.Y)
	case *InitListExpr:
		for _, e := range x.Elems {
			dst = CallsInto(dst, e)
		}
		for _, fi := range x.Fields {
			dst = CallsInto(dst, fi.Value)
		}
	}
	return dst
}

// Idents returns all identifier uses under n, in pre-order.
func Idents(n Node) []*Ident {
	var out []*Ident
	Walk(n, func(m Node) bool {
		if id, ok := m.(*Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

// BaseIdent returns the root identifier of an lvalue-ish chain:
// a->b.c[i] yields a; (*p).x yields p. Returns nil when the expression has
// no identifier root (e.g. a call result).
func BaseIdent(e Expr) *Ident {
	for {
		switch x := e.(type) {
		case *Ident:
			return x
		case *MemberExpr:
			e = x.X
		case *IndexExpr:
			e = x.X
		case *ParenExpr:
			e = x.X
		case *UnaryExpr:
			e = x.X
		case *CastExpr:
			e = x.X
		default:
			return nil
		}
	}
}
