package cparse

import (
	"repro/internal/cast"
	"repro/internal/clex"
)

func (p *Parser) parseCompound() *cast.CompoundStmt {
	open := p.expect(clex.LBrace)
	cs := p.ast.compounds.New(cast.CompoundStmt{})
	cs.StartPos = open.Pos
	cs.Origin = open.Origin
	cs.Stmts = p.stmts.Take(8)
	for !p.at(clex.RBrace) && !p.atEOF() {
		start := p.pos
		s := p.parseStmt()
		if s != nil {
			cs.Stmts = append(cs.Stmts, s)
		}
		if p.pos == start {
			p.errorf(p.peek().Pos, "unexpected token %s in block", p.peek())
			p.next()
		}
	}
	p.expect(clex.RBrace)
	return cs
}

func (p *Parser) parseStmt() cast.Stmt {
	if !p.enterNest() {
		p.skipToSemi()
		return nil
	}
	defer p.leaveNest()
	t := p.peek()
	switch {
	case t.Kind == clex.LBrace:
		return p.parseCompound()
	case t.Kind == clex.Semi:
		p.next()
		s := &cast.EmptyStmt{}
		s.StartPos = t.Pos
		s.Origin = t.Origin
		return s
	case t.Kind == clex.Keyword:
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDoWhile()
		case "switch":
			return p.parseSwitch()
		case "case", "default":
			return p.parseCase()
		case "return":
			return p.parseReturn()
		case "break":
			p.next()
			p.expect(clex.Semi)
			s := &cast.BreakStmt{}
			s.StartPos = t.Pos
			s.Origin = t.Origin
			return s
		case "continue":
			p.next()
			p.expect(clex.Semi)
			s := &cast.ContinueStmt{}
			s.StartPos = t.Pos
			s.Origin = t.Origin
			return s
		case "goto":
			p.next()
			lbl := p.expect(clex.Ident)
			p.expect(clex.Semi)
			s := &cast.GotoStmt{Label: lbl.Text}
			s.StartPos = t.Pos
			s.Origin = t.Origin
			return s
		case "__asm__":
			p.next()
			for p.atText(clex.Keyword, "volatile") {
				p.next()
			}
			p.skipParens()
			p.accept(clex.Semi)
			s := &cast.EmptyStmt{}
			s.StartPos = t.Pos
			return s
		}
		if p.atTypeStart() {
			return p.parseDeclStmt()
		}
		// Unknown keyword in statement position: recover.
		p.errorf(t.Pos, "unexpected keyword %q", t.Text)
		p.skipToSemi()
		return nil
	case t.Kind == clex.Ident && p.peekAt(1).Kind == clex.Colon &&
		p.peekAt(2).Kind != clex.Colon:
		// Label: ident ':' stmt. (Guard against a?b:c only matters in expr.)
		p.next()
		p.next()
		s := &cast.LabelStmt{Name: t.Text}
		s.StartPos = t.Pos
		s.Origin = t.Origin
		if !p.at(clex.RBrace) {
			s.Stmt = p.parseStmt()
		}
		return s
	case p.atTypeStart():
		return p.parseDeclStmt()
	default:
		return p.parseExprStmt()
	}
}

func (p *Parser) parseIf() cast.Stmt {
	t := p.next() // if
	s := p.ast.ifs.New(cast.IfStmt{})
	s.StartPos = t.Pos
	s.Origin = t.Origin
	p.expect(clex.LParen)
	s.Cond = p.parseExpr()
	p.expect(clex.RParen)
	s.Then = p.parseStmt()
	if p.acceptText(clex.Keyword, "else") {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *Parser) parseFor() cast.Stmt {
	t := p.next() // for
	s := &cast.ForStmt{}
	s.StartPos = t.Pos
	s.Origin = t.Origin
	p.expect(clex.LParen)
	if !p.at(clex.Semi) {
		if p.atTypeStart() {
			s.Init = p.parseDeclStmt() // consumes ';'
		} else {
			e := p.parseExpr()
			es := p.ast.exprStmts.New(cast.ExprStmt{X: e})
			es.StartPos = e.Pos()
			es.Origin = t.Origin
			s.Init = es
			p.expect(clex.Semi)
		}
	} else {
		p.next()
	}
	if !p.at(clex.Semi) {
		s.Cond = p.parseExpr()
	}
	p.expect(clex.Semi)
	if !p.at(clex.RParen) {
		s.Post = p.parseExpr()
	}
	p.expect(clex.RParen)
	s.Body = p.parseStmt()
	return s
}

func (p *Parser) parseWhile() cast.Stmt {
	t := p.next() // while
	s := &cast.WhileStmt{}
	s.StartPos = t.Pos
	s.Origin = t.Origin
	p.expect(clex.LParen)
	s.Cond = p.parseExpr()
	p.expect(clex.RParen)
	s.Body = p.parseStmt()
	return s
}

func (p *Parser) parseDoWhile() cast.Stmt {
	t := p.next() // do
	s := &cast.DoWhileStmt{}
	s.StartPos = t.Pos
	s.Origin = t.Origin
	s.Body = p.parseStmt()
	if !p.acceptText(clex.Keyword, "while") {
		p.errorf(p.peek().Pos, "expected while after do body")
	}
	p.expect(clex.LParen)
	s.Cond = p.parseExpr()
	p.expect(clex.RParen)
	p.expect(clex.Semi)
	return s
}

func (p *Parser) parseSwitch() cast.Stmt {
	t := p.next() // switch
	s := &cast.SwitchStmt{}
	s.StartPos = t.Pos
	s.Origin = t.Origin
	p.expect(clex.LParen)
	s.Tag = p.parseExpr()
	p.expect(clex.RParen)
	s.Body = p.parseStmt()
	return s
}

func (p *Parser) parseCase() cast.Stmt {
	t := p.next() // case | default
	s := &cast.CaseStmt{IsDefault: t.Text == "default"}
	s.StartPos = t.Pos
	s.Origin = t.Origin
	if !s.IsDefault {
		s.Value = p.parseTernary()
		// GNU case ranges: case A ... B:
		if p.accept(clex.Ellipsis) {
			p.parseTernary()
		}
	}
	p.expect(clex.Colon)
	return s
}

func (p *Parser) parseReturn() cast.Stmt {
	t := p.next() // return
	s := p.ast.returns.New(cast.ReturnStmt{})
	s.StartPos = t.Pos
	s.Origin = t.Origin
	if !p.at(clex.Semi) {
		s.Value = p.parseExpr()
	}
	p.expect(clex.Semi)
	return s
}

// parseDeclStmt parses local declarations. Multiple declarators become a
// compound of DeclStmts so each name keeps its own initializer.
func (p *Parser) parseDeclStmt() cast.Stmt {
	startTok := p.peek()
	p.skipQualifiers()
	ty := p.parseType()

	var decls []cast.Stmt
	for {
		dTy := ty
		var name clex.Token
		if p.at(clex.LParen) && p.peekAt(1).Kind == clex.Star {
			pos := p.peek().Pos
			n, fnTy := p.parseFuncPtrDeclarator(dTy)
			name = clex.Token{Kind: clex.Ident, Text: n, Pos: pos}
			dTy = fnTy
		} else {
			if !p.at(clex.Ident) {
				p.errorf(p.peek().Pos, "expected declarator, found %s", p.peek())
				p.skipToSemi()
				break
			}
			name = p.next()
			for p.at(clex.LBracket) {
				p.skipBrackets()
			}
		}
		d := p.ast.declStmts.New(cast.DeclStmt{Name: name.Text, Type: dTy})
		d.StartPos = startTok.Pos
		d.Origin = startTok.Origin
		if p.accept(clex.Assign) {
			d.Init = p.parseInitializer()
		}
		decls = append(decls, d)
		if p.accept(clex.Comma) {
			// `int a, *b;` — later declarators re-read stars.
			ty2 := ty
			ty2.Stars = ty.Stars
			for p.accept(clex.Star) {
				ty2.Stars++
			}
			ty = ty2
			continue
		}
		break
	}
	p.expect(clex.Semi)
	switch len(decls) {
	case 0:
		return nil
	case 1:
		return decls[0]
	default:
		cs := p.ast.compounds.New(cast.CompoundStmt{Stmts: decls})
		cs.StartPos = startTok.Pos
		cs.Origin = startTok.Origin
		return cs
	}
}

func (p *Parser) parseExprStmt() cast.Stmt {
	t := p.peek()
	e := p.parseExpr()
	p.expect(clex.Semi)
	if e == nil {
		return nil
	}
	s := p.ast.exprStmts.New(cast.ExprStmt{X: e})
	s.StartPos = t.Pos
	s.Origin = t.Origin
	return s
}
