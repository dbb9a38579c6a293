package cparse

import (
	"repro/internal/cast"
	"repro/internal/clex"
)

// Expression grammar, standard C precedence ladder:
//   expr        := assign (',' assign)*
//   assign      := ternary (ASSIGNOP assign)?
//   ternary     := or ('?' expr ':' ternary)?
//   or .. mul   := binary levels
//   unary       := prefix ops, casts, sizeof
//   postfix     := calls, members, indexing, ++/--
//   primary     := ident | literal | '(' expr ')'

func (p *Parser) parseExpr() cast.Expr {
	e := p.parseAssignExpr()
	for p.at(clex.Comma) {
		pos := p.next().Pos
		y := p.parseAssignExpr()
		c := &cast.CommaExpr{X: e, Y: y}
		c.StartPos = pos
		e = c
	}
	return e
}

var assignOps = map[clex.Kind]bool{
	clex.Assign: true, clex.PlusAssign: true, clex.MinusAssign: true,
	clex.StarAssign: true, clex.SlashAssign: true, clex.PercentAssign: true,
	clex.AmpAssign: true, clex.PipeAssign: true, clex.CaretAssign: true,
	clex.ShlAssign: true, clex.ShrAssign: true,
}

func (p *Parser) parseAssignExpr() cast.Expr {
	if !p.enterNest() {
		return p.nestOverflowExpr()
	}
	defer p.leaveNest()
	lhs := p.parseTernary()
	if assignOps[p.peek().Kind] {
		op := p.next()
		rhs := p.parseAssignExpr()
		a := p.ast.assigns.New(cast.AssignExpr{Op: op.Kind, LHS: lhs, RHS: rhs})
		if lhs != nil {
			a.StartPos = lhs.Pos()
		} else {
			a.StartPos = op.Pos
		}
		return a
	}
	return lhs
}

func (p *Parser) parseTernary() cast.Expr {
	cond := p.parseBinary(0)
	if p.at(clex.Question) {
		p.next()
		var then cast.Expr
		if !p.at(clex.Colon) { // GNU a ?: b
			then = p.parseExpr()
		}
		p.expect(clex.Colon)
		els := p.parseTernary()
		c := &cast.CondExpr{Cond: cond, Then: then, Else: els}
		if cond != nil {
			c.StartPos = cond.Pos()
		}
		return c
	}
	return cond
}

// binLevels defines binary operator precedence from loosest to tightest.
var binLevels = [][]clex.Kind{
	{clex.OrOr},
	{clex.AndAnd},
	{clex.Pipe},
	{clex.Caret},
	{clex.Amp},
	{clex.Eq, clex.Ne},
	{clex.Lt, clex.Gt, clex.Le, clex.Ge},
	{clex.Shl, clex.Shr},
	{clex.Plus, clex.Minus},
	{clex.Star, clex.Slash, clex.Percent},
}

func (p *Parser) parseBinary(level int) cast.Expr {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	e := p.parseBinary(level + 1)
	for {
		k := p.peek().Kind
		match := false
		for _, op := range binLevels[level] {
			if k == op {
				match = true
				break
			}
		}
		if !match {
			return e
		}
		opTok := p.next()
		y := p.parseBinary(level + 1)
		b := p.ast.binaries.New(cast.BinaryExpr{Op: opTok.Kind, X: e, Y: y})
		if e != nil {
			b.StartPos = e.Pos()
		} else {
			b.StartPos = opTok.Pos
		}
		e = b
	}
}

func (p *Parser) parseUnary() cast.Expr {
	if !p.enterNest() {
		return p.nestOverflowExpr()
	}
	defer p.leaveNest()
	t := p.peek()
	switch t.Kind {
	case clex.Plus, clex.Minus, clex.Not, clex.Tilde, clex.Star, clex.Amp,
		clex.Inc, clex.Dec:
		p.next()
		x := p.parseUnary()
		u := p.ast.unaries.New(cast.UnaryExpr{Op: t.Kind, X: x})
		u.StartPos = t.Pos
		return u
	case clex.Keyword:
		if t.Text == "sizeof" {
			p.next()
			s := &cast.SizeofExpr{}
			s.StartPos = t.Pos
			if p.at(clex.LParen) && p.typeAfterLParen() {
				p.next()
				s.Type = p.parseType()
				p.expect(clex.RParen)
			} else {
				s.X = p.parseUnary()
			}
			return s
		}
	case clex.LParen:
		// Cast? '(' type ')' unary — but not '(' type ')' '{' (compound lit,
		// treated as cast of init list).
		if p.typeAfterLParen() {
			p.next()
			ty := p.parseType()
			p.expect(clex.RParen)
			c := &cast.CastExpr{Type: ty}
			c.StartPos = t.Pos
			if p.at(clex.LBrace) {
				c.X = p.parseInitializer()
			} else {
				c.X = p.parseUnary()
			}
			return c
		}
	}
	return p.parsePostfix()
}

// typeAfterLParen reports whether '(' is followed by a type and then ')'.
func (p *Parser) typeAfterLParen() bool {
	if !p.at(clex.LParen) {
		return false
	}
	save := p.pos
	defer func() { p.pos = save }()
	p.next()
	if !p.atTypeStart() {
		return false
	}
	p.parseType()
	return p.at(clex.RParen)
}

func (p *Parser) parsePostfix() cast.Expr {
	e := p.parsePrimary()
	for {
		t := p.peek()
		switch t.Kind {
		case clex.LParen:
			p.next()
			call := p.ast.calls.New(cast.CallExpr{Fun: e})
			if e != nil {
				call.StartPos = e.Pos()
			} else {
				call.StartPos = t.Pos
			}
			// Provenance: take from the callee token stream.
			if fe, ok := e.(*cast.Ident); ok {
				call.Origin = fe.TokenOrigin
			}
			if !p.at(clex.RParen) && !p.atEOF() {
				call.Args = p.args.Take(4)
			}
			for !p.at(clex.RParen) && !p.atEOF() {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(clex.Comma) {
					break
				}
			}
			p.expect(clex.RParen)
			e = call
		case clex.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(clex.RBracket)
			ie := p.ast.indexes.New(cast.IndexExpr{X: e, Index: idx})
			if e != nil {
				ie.StartPos = e.Pos()
			}
			e = ie
		case clex.Dot, clex.Arrow:
			p.next()
			name := p.expect(clex.Ident)
			me := p.ast.members.New(cast.MemberExpr{X: e, Name: name.Text, Arrow: t.Kind == clex.Arrow})
			if e != nil {
				me.StartPos = e.Pos()
			}
			e = me
		case clex.Inc, clex.Dec:
			p.next()
			ue := p.ast.unaries.New(cast.UnaryExpr{Op: t.Kind, X: e, Postfix: true})
			if e != nil {
				ue.StartPos = e.Pos()
			}
			e = ue
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimary() cast.Expr {
	t := p.peek()
	switch t.Kind {
	case clex.Ident:
		p.next()
		id := p.ast.idents.New(cast.Ident{Name: t.Text, TokenOrigin: t.Origin})
		id.StartPos = t.Pos
		return id
	case clex.IntLit, clex.FloatLit, clex.CharLit, clex.StringLit:
		p.next()
		l := p.ast.lits.New(cast.Lit{Kind: t.Kind, Text: t.Text})
		l.StartPos = t.Pos
		// Adjacent string literal concatenation.
		for t.Kind == clex.StringLit && p.at(clex.StringLit) {
			nxt := p.next()
			l.Text += nxt.Text
		}
		return l
	case clex.LParen:
		p.next()
		// GNU statement expression: ({ ... })
		if p.at(clex.LBrace) {
			p.skipBraces()
			p.expect(clex.RParen)
			id := p.ast.idents.New(cast.Ident{Name: "__stmt_expr__"})
			id.StartPos = t.Pos
			return id
		}
		inner := p.parseExpr()
		p.expect(clex.RParen)
		pe := p.ast.parens.New(cast.ParenExpr{X: inner})
		pe.StartPos = t.Pos
		return pe
	case clex.Keyword:
		// NULL-ish keywords occasionally land in expr position via macros;
		// treat a lone keyword as an identifier-like atom for robustness.
		if t.Text == "sizeof" {
			return p.parseUnary()
		}
		p.next()
		id := p.ast.idents.New(cast.Ident{Name: t.Text})
		id.StartPos = t.Pos
		return id
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		id := p.ast.idents.New(cast.Ident{Name: "__error__"})
		id.StartPos = t.Pos
		return id
	}
}
