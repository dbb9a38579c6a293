// Package cparse implements a recursive-descent parser for the kernel-C
// subset used by the checker pipeline.
//
// It consumes the preprocessed token stream from internal/cpp and produces an
// internal/cast tree. The parser is error-tolerant in the style of island
// parsing (the JOERN approach the paper builds on): a malformed declaration
// or statement is recorded as an error and skipped, and parsing continues at
// the next synchronization point, so one exotic construct never hides the
// rest of a file from the checkers.
package cparse

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
)

// builtinTypedefs are kernel typedef names the parser accepts as type
// starters without having seen their definitions.
var builtinTypedefs = map[string]bool{
	"u8": true, "u16": true, "u32": true, "u64": true,
	"s8": true, "s16": true, "s32": true, "s64": true,
	"__u8": true, "__u16": true, "__u32": true, "__u64": true,
	"size_t": true, "ssize_t": true, "bool": true, "loff_t": true,
	"dma_addr_t": true, "phys_addr_t": true, "gfp_t": true,
	"irqreturn_t": true, "atomic_t": true, "refcount_t": true,
	"uint8_t": true, "uint16_t": true, "uint32_t": true, "uint64_t": true,
	"int8_t": true, "int16_t": true, "int32_t": true, "int64_t": true,
	"uintptr_t": true, "intptr_t": true, "pid_t": true, "umode_t": true,
}

// ignorableQualifiers are kernel annotations that carry no meaning for the
// analysis and are skipped wherever they appear in declarations.
var ignorableQualifiers = map[string]bool{
	"__init": true, "__exit": true, "__user": true, "__iomem": true,
	"__must_check": true, "__maybe_unused": true, "__always_inline": true,
	"__cold": true, "__hot": true, "__weak": true, "__ref": true,
	"__devinit": true, "__devexit": true, "__percpu": true, "__rcu": true,
	"__force": true, "__read_mostly": true, "__initdata": true,
	"noinline": true, "notrace": true, "asmlinkage": true,
}

// Parser parses one token stream into a cast.File.
type Parser struct {
	toks []clex.Token
	pos  int
	file string

	typedefs map[string]bool
	errs     []error

	// nest counts recursive grammar depth (expressions, statements,
	// initializers, nested struct bodies). The cap keeps adversarial inputs
	// like ten thousand open parens or braces from overflowing the goroutine
	// stack; real kernel code nests a couple dozen levels at most.
	nest      int
	nestErred bool

	// ast slab-allocates the hot AST node kinds (see alloc.go). A Parser is
	// single-goroutine, so the slabs need no locking.
	ast astAlloc

	// args and stmts back call-argument and compound-statement slices with
	// capacity-4 and capacity-8 windows (see arena.Windows); lists that
	// outgrow their window migrate to the heap via ordinary append
	// reallocation.
	args  arena.Windows[cast.Expr]
	stmts arena.Windows[cast.Stmt]
}

// Chunk caps of the parser's windows, in values.
const (
	argChunkLen  = 256
	stmtChunkLen = 512
)

const maxNest = 1024

// enterNest guards one level of grammar recursion; callers that get false
// must recover without recursing (see nestOverflowExpr).
func (p *Parser) enterNest() bool {
	if p.nest >= maxNest {
		if !p.nestErred {
			p.nestErred = true
			p.errorf(p.peek().Pos, "construct nests deeper than %d levels; skipping", maxNest)
		}
		return false
	}
	p.nest++
	return true
}

func (p *Parser) leaveNest() { p.nest-- }

// nestOverflowExpr consumes one token — guaranteeing progress for every
// enclosing parse loop — and yields an error placeholder expression.
func (p *Parser) nestOverflowExpr() cast.Expr {
	t := p.next()
	id := p.ast.idents.New(cast.Ident{Name: "__depth__"})
	id.StartPos = t.Pos
	return id
}

// New returns a parser over the given preprocessed tokens.
func New(file string, toks []clex.Token) *Parser {
	td := make(map[string]bool, len(builtinTypedefs))
	for k := range builtinTypedefs {
		td[k] = true
	}
	p := &Parser{toks: toks, file: file, typedefs: td}
	p.args.Max = argChunkLen
	p.stmts.Max = stmtChunkLen
	return p
}

// Parse parses the whole translation unit. It always returns a File; errors
// are available from Errors.
func (p *Parser) Parse() *cast.File {
	f := &cast.File{Name: p.file}
	for !p.atEOF() {
		start := p.pos
		d := p.parseTopLevel()
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.pos == start {
			// No progress: skip a token to guarantee termination.
			p.errorf(p.peek().Pos, "unexpected token %s", p.peek())
			p.pos++
		}
	}
	return f
}

// Errors returns the parse errors encountered.
func (p *Parser) Errors() []error { return p.errs }

// ParseFile is a convenience: parse preprocessed tokens into a file.
func ParseFile(file string, toks []clex.Token) (*cast.File, []error) {
	return ParseFileArena(file, toks, nil)
}

// ParseFileArena is ParseFile with the chunk counters of every slab and
// window the parse allocates reported into st (which may be nil). The
// returned tree owns those chunks; nothing is released — the counters
// measure what the tree holds.
func ParseFileArena(file string, toks []clex.Token, st *arena.Stats) (*cast.File, []error) {
	p := New(file, toks)
	p.ast.setStats(st)
	p.args.Stats = st
	p.stmts.Stats = st
	f := p.Parse()
	return f, p.errs
}

// --- token helpers ---

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peek() clex.Token {
	if p.atEOF() {
		return clex.Token{Kind: clex.EOF, Pos: clex.Pos{File: p.file}}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(n int) clex.Token {
	if p.pos+n >= len(p.toks) {
		return clex.Token{Kind: clex.EOF}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() clex.Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) at(k clex.Kind) bool { return p.peek().Kind == k }

func (p *Parser) atText(k clex.Kind, text string) bool {
	t := p.peek()
	return t.Kind == k && t.Text == text
}

func (p *Parser) accept(k clex.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptText(k clex.Kind, text string) bool {
	if p.atText(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k clex.Kind) clex.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.peek().Pos, "expected %s, found %s", k, p.peek())
	return clex.Token{Kind: k, Pos: p.peek().Pos}
}

func (p *Parser) errorf(pos clex.Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// sync skips tokens until just past the next top-level ';' or balanced '}'.
func (p *Parser) sync() {
	depth := 0
	for !p.atEOF() {
		switch p.peek().Kind {
		case clex.LBrace:
			depth++
		case clex.RBrace:
			depth--
			if depth <= 0 {
				p.next()
				p.accept(clex.Semi)
				return
			}
		case clex.Semi:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// skipQualifiers consumes storage classes, qualifiers and kernel annotations,
// returning (static, inline) flags.
func (p *Parser) skipQualifiers() (isStatic, isInline, isConst bool) {
	for {
		t := p.peek()
		switch {
		case t.Kind == clex.Keyword && (t.Text == "static"):
			isStatic = true
			p.next()
		case t.Kind == clex.Keyword && (t.Text == "inline" || t.Text == "__inline__"):
			isInline = true
			p.next()
		case t.Kind == clex.Keyword && t.Text == "const":
			isConst = true
			p.next()
		case t.Kind == clex.Keyword && (t.Text == "extern" || t.Text == "volatile" ||
			t.Text == "register" || t.Text == "auto" || t.Text == "restrict"):
			p.next()
		case t.Kind == clex.Keyword && t.Text == "__attribute__":
			p.next()
			p.skipParens()
		case t.Kind == clex.Ident && ignorableQualifiers[t.Text]:
			p.next()
		default:
			return isStatic, isInline, isConst
		}
	}
}

// skipParens consumes a balanced (...) group if present.
func (p *Parser) skipParens() {
	if !p.at(clex.LParen) {
		return
	}
	depth := 0
	for !p.atEOF() {
		switch p.next().Kind {
		case clex.LParen:
			depth++
		case clex.RParen:
			depth--
			if depth == 0 {
				return
			}
		}
	}
}

// --- type recognition ---

var baseTypeKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"_Bool": true,
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	t := p.peek()
	switch t.Kind {
	case clex.Keyword:
		if baseTypeKeywords[t.Text] || t.Text == "struct" || t.Text == "union" ||
			t.Text == "enum" || t.Text == "const" || t.Text == "volatile" ||
			t.Text == "typeof" || t.Text == "__typeof__" {
			return true
		}
		return false
	case clex.Ident:
		return p.typedefs[t.Text]
	}
	return false
}

// parseType parses a type specifier (without declarator): qualifiers, base
// type, and trailing stars.
func (p *Parser) parseType() cast.Type {
	var ty cast.Type
	for {
		t := p.peek()
		if t.Kind == clex.Keyword && (t.Text == "const" || t.Text == "volatile" || t.Text == "restrict") {
			if t.Text == "const" {
				ty.IsConst = true
			}
			p.next()
			continue
		}
		if t.Kind == clex.Ident && ignorableQualifiers[t.Text] {
			p.next()
			continue
		}
		break
	}
	t := p.peek()
	switch {
	case t.Kind == clex.Keyword && (t.Text == "struct" || t.Text == "union" || t.Text == "enum"):
		kw := p.next().Text
		name := ""
		if p.at(clex.Ident) {
			name = p.next().Text
		}
		ty.Base = kw + " " + name
	case t.Kind == clex.Keyword && (t.Text == "typeof" || t.Text == "__typeof__"):
		p.next()
		p.skipParens()
		ty.Base = "typeof"
	case t.Kind == clex.Keyword && baseTypeKeywords[t.Text]:
		base := p.next().Text
		// Multi-word types: unsigned long long int, etc.
		for p.peek().Kind == clex.Keyword && baseTypeKeywords[p.peek().Text] {
			base += " " + p.next().Text
		}
		ty.Base = base
	case t.Kind == clex.Ident && p.typedefs[t.Text]:
		ty.Base = p.next().Text
	default:
		p.errorf(t.Pos, "expected type, found %s", t)
		ty.Base = "int"
	}
	for {
		if p.accept(clex.Star) {
			ty.Stars++
			// const after star
			for p.atText(clex.Keyword, "const") || p.atText(clex.Keyword, "volatile") {
				p.next()
			}
			continue
		}
		break
	}
	// Attributes and kernel annotations between the type and the declarator
	// (`static int __init __attribute__((cold)) f(void)`).
	for {
		t := p.peek()
		if t.Kind == clex.Keyword && t.Text == "__attribute__" {
			p.next()
			p.skipParens()
			continue
		}
		if t.Kind == clex.Ident && ignorableQualifiers[t.Text] {
			p.next()
			continue
		}
		break
	}
	return ty
}

// --- top level ---

func (p *Parser) parseTopLevel() cast.Decl {
	switch {
	case p.at(clex.Semi):
		p.next()
		return nil
	case p.atText(clex.Keyword, "typedef"):
		return p.parseTypedef()
	}

	isStatic, isInline, _ := p.skipQualifiers()

	// struct/union definition or variable of struct type.
	if p.atText(clex.Keyword, "struct") || p.atText(clex.Keyword, "union") {
		// Lookahead: struct NAME { ... }  -> type definition (possibly
		// followed by a variable); struct NAME ident -> declaration.
		if p.peekAt(1).Kind == clex.Ident && p.peekAt(2).Kind == clex.LBrace {
			return p.parseStructDef()
		}
	}
	if p.atText(clex.Keyword, "enum") {
		if p.peekAt(1).Kind == clex.LBrace ||
			(p.peekAt(1).Kind == clex.Ident && p.peekAt(2).Kind == clex.LBrace) {
			return p.parseEnumDef()
		}
	}

	if !p.atTypeStart() {
		p.errorf(p.peek().Pos, "expected declaration, found %s", p.peek())
		p.sync()
		return nil
	}

	ty := p.parseType()

	// Function-pointer global: type (*name)(params) = ...;
	if p.at(clex.LParen) && p.peekAt(1).Kind == clex.Star {
		name, fnTy := p.parseFuncPtrDeclarator(ty)
		d := &cast.VarDecl{Name: name, Type: fnTy, Static: isStatic, NamePos: p.peek().Pos}
		if p.accept(clex.Assign) {
			d.Init = p.parseAssignExpr()
		}
		p.expect(clex.Semi)
		return d
	}

	if !p.at(clex.Ident) {
		// e.g. `struct foo;` forward declaration
		p.accept(clex.Semi)
		return nil
	}
	nameTok := p.next()

	if p.at(clex.LParen) {
		return p.parseFuncRest(ty, nameTok, isStatic, isInline)
	}
	return p.parseGlobalVarRest(ty, nameTok, isStatic)
}

func (p *Parser) parseTypedef() cast.Decl {
	p.next() // typedef
	pos := p.peek().Pos
	// typedef ... (*name)(...) — function pointer typedef.
	ty := p.parseType()
	if p.at(clex.LParen) && p.peekAt(1).Kind == clex.Star {
		name, fnTy := p.parseFuncPtrDeclarator(ty)
		p.expect(clex.Semi)
		p.typedefs[name] = true
		return &cast.TypedefDecl{Name: name, Type: fnTy, NamePos: pos}
	}
	if !p.at(clex.Ident) {
		p.errorf(p.peek().Pos, "malformed typedef")
		p.sync()
		return nil
	}
	name := p.next().Text
	// Skip array suffixes.
	for p.at(clex.LBracket) {
		p.skipBrackets()
	}
	p.expect(clex.Semi)
	p.typedefs[name] = true
	return &cast.TypedefDecl{Name: name, Type: ty, NamePos: pos}
}

func (p *Parser) skipBrackets() {
	depth := 0
	for !p.atEOF() {
		switch p.next().Kind {
		case clex.LBracket:
			depth++
		case clex.RBracket:
			depth--
			if depth == 0 {
				return
			}
		}
	}
}

func (p *Parser) parseStructDef() cast.Decl {
	kw := p.next() // struct | union
	name := p.expect(clex.Ident)
	d := &cast.StructDecl{Name: name.Text, Union: kw.Text == "union", NamePos: name.Pos}
	p.expect(clex.LBrace)
	for !p.at(clex.RBrace) && !p.atEOF() {
		start := p.pos
		p.parseStructField(d)
		if p.pos == start {
			p.next()
		}
	}
	p.expect(clex.RBrace)
	p.accept(clex.Semi)
	return d
}

func (p *Parser) parseStructField(d *cast.StructDecl) {
	if !p.enterNest() {
		p.skipToSemi()
		return
	}
	defer p.leaveNest()
	p.skipQualifiers()
	if p.at(clex.Semi) {
		p.next()
		return
	}
	// Anonymous nested struct/union: flatten its fields.
	if (p.atText(clex.Keyword, "struct") || p.atText(clex.Keyword, "union")) &&
		(p.peekAt(1).Kind == clex.LBrace ||
			(p.peekAt(1).Kind == clex.Ident && p.peekAt(2).Kind == clex.LBrace)) {
		p.next() // struct/union
		if p.at(clex.Ident) {
			p.next()
		}
		inner := &cast.StructDecl{}
		p.expect(clex.LBrace)
		for !p.at(clex.RBrace) && !p.atEOF() {
			start := p.pos
			p.parseStructField(inner)
			if p.pos == start {
				p.next()
			}
		}
		p.expect(clex.RBrace)
		// Named or anonymous member; either way we flatten for lookup.
		if p.at(clex.Ident) {
			p.next()
		}
		p.expect(clex.Semi)
		d.Fields = append(d.Fields, inner.Fields...)
		return
	}
	if !p.atTypeStart() {
		p.errorf(p.peek().Pos, "expected field type, found %s", p.peek())
		p.skipToSemi()
		return
	}
	ty := p.parseType()
	// Function-pointer field: ret (*name)(params);
	if p.at(clex.LParen) && p.peekAt(1).Kind == clex.Star {
		pos := p.peek().Pos
		name, fnTy := p.parseFuncPtrDeclarator(ty)
		d.Fields = append(d.Fields, cast.Field{Name: name, Type: fnTy, Pos: pos})
		p.expect(clex.Semi)
		return
	}
	for {
		if !p.at(clex.Ident) {
			p.errorf(p.peek().Pos, "expected field name, found %s", p.peek())
			p.skipToSemi()
			return
		}
		nt := p.next()
		fieldTy := ty
		for p.at(clex.LBracket) {
			p.skipBrackets()
		}
		// Bitfield width.
		if p.accept(clex.Colon) {
			p.parseAssignExpr()
		}
		d.Fields = append(d.Fields, cast.Field{Name: nt.Text, Type: fieldTy, Pos: nt.Pos})
		if p.accept(clex.Comma) {
			// Subsequent declarators may add stars.
			for p.accept(clex.Star) {
				fieldTy.Stars++
			}
			ty = fieldTy
			continue
		}
		break
	}
	p.expect(clex.Semi)
}

func (p *Parser) skipToSemi() {
	for !p.atEOF() && !p.at(clex.Semi) && !p.at(clex.RBrace) {
		if p.at(clex.LBrace) {
			p.skipBraces()
			continue
		}
		p.next()
	}
	p.accept(clex.Semi)
}

func (p *Parser) skipBraces() {
	depth := 0
	for !p.atEOF() {
		switch p.next().Kind {
		case clex.LBrace:
			depth++
		case clex.RBrace:
			depth--
			if depth == 0 {
				return
			}
		}
	}
}

func (p *Parser) parseEnumDef() cast.Decl {
	p.next() // enum
	d := &cast.EnumDecl{NamePos: p.peek().Pos}
	if p.at(clex.Ident) {
		d.Name = p.next().Text
	}
	p.expect(clex.LBrace)
	for !p.at(clex.RBrace) && !p.atEOF() {
		if p.at(clex.Ident) {
			d.Consts = append(d.Consts, p.next().Text)
			if p.accept(clex.Assign) {
				p.parseAssignExpr()
			}
		}
		if !p.accept(clex.Comma) {
			break
		}
	}
	p.expect(clex.RBrace)
	p.accept(clex.Semi)
	return d
}

// parseFuncPtrDeclarator parses `(*name)(params)` after the return type.
func (p *Parser) parseFuncPtrDeclarator(ret cast.Type) (string, cast.Type) {
	p.expect(clex.LParen)
	p.expect(clex.Star)
	name := ""
	if p.at(clex.Ident) {
		name = p.next().Text
	}
	p.expect(clex.RParen)
	fnTy := cast.Type{Base: ret.Base, Stars: ret.Stars, FuncPtr: true}
	if p.at(clex.LParen) {
		p.next()
		for !p.at(clex.RParen) && !p.atEOF() {
			if p.atTypeStart() {
				pt := p.parseType()
				if p.at(clex.Ident) {
					p.next()
				}
				fnTy.Params = append(fnTy.Params, pt)
			} else {
				p.next()
			}
			p.accept(clex.Comma)
		}
		p.expect(clex.RParen)
	}
	return name, fnTy
}

func (p *Parser) parseFuncRest(ret cast.Type, name clex.Token, isStatic, isInline bool) cast.Decl {
	fd := &cast.FuncDef{
		Name: name.Text, Ret: ret, Static: isStatic, Inline: isInline,
		NamePos: name.Pos,
	}
	p.expect(clex.LParen)
	for !p.at(clex.RParen) && !p.atEOF() {
		if p.at(clex.Ellipsis) {
			p.next()
			break
		}
		if p.atText(clex.Keyword, "void") && p.peekAt(1).Kind == clex.RParen {
			p.next()
			break
		}
		if !p.atTypeStart() {
			// K&R style or unparseable: skip to , or ).
			for !p.atEOF() && !p.at(clex.Comma) && !p.at(clex.RParen) {
				p.next()
			}
			p.accept(clex.Comma)
			continue
		}
		pt := p.parseType()
		prm := cast.Param{Type: pt, Pos: p.peek().Pos}
		if p.at(clex.LParen) && p.peekAt(1).Kind == clex.Star {
			prm.Name, prm.Type = p.parseFuncPtrDeclarator(pt)
		} else if p.at(clex.Ident) {
			prm.Name = p.next().Text
			for p.at(clex.LBracket) {
				p.skipBrackets()
			}
		}
		fd.Params = append(fd.Params, prm)
		if !p.accept(clex.Comma) {
			break
		}
	}
	p.expect(clex.RParen)
	p.skipQualifiers()

	if p.accept(clex.Semi) {
		return fd // prototype
	}
	if p.at(clex.LBrace) {
		fd.Body = p.parseCompound()
		return fd
	}
	p.errorf(p.peek().Pos, "expected function body or ';', found %s", p.peek())
	p.sync()
	return fd
}

func (p *Parser) parseGlobalVarRest(ty cast.Type, name clex.Token, isStatic bool) cast.Decl {
	d := &cast.VarDecl{Name: name.Text, Type: ty, Static: isStatic, NamePos: name.Pos}
	for p.at(clex.LBracket) {
		p.skipBrackets()
	}
	if p.accept(clex.Assign) {
		init := p.parseInitializer()
		if il, ok := init.(*cast.InitListExpr); ok && len(il.Fields) > 0 {
			d.Inits = il.Fields
		}
		d.Init = init
	}
	// `int a, b = 1;` at top level: accept and drop the extra declarators.
	for p.accept(clex.Comma) {
		for p.accept(clex.Star) {
		}
		if p.at(clex.Ident) {
			p.next()
		}
		for p.at(clex.LBracket) {
			p.skipBrackets()
		}
		if p.accept(clex.Assign) {
			p.parseInitializer()
		}
	}
	p.expect(clex.Semi)
	return d
}

// parseInitializer parses either a brace initializer list or an assignment
// expression.
func (p *Parser) parseInitializer() cast.Expr {
	if !p.enterNest() {
		return p.nestOverflowExpr()
	}
	defer p.leaveNest()
	if !p.at(clex.LBrace) {
		return p.parseAssignExpr()
	}
	pos := p.next().Pos // {
	lst := &cast.InitListExpr{}
	lst.StartPos = pos
	for !p.at(clex.RBrace) && !p.atEOF() {
		if p.at(clex.Dot) {
			p.next()
			fname := p.expect(clex.Ident)
			p.expect(clex.Assign)
			val := p.parseInitializer()
			lst.Fields = append(lst.Fields, cast.FieldInit{Field: fname.Text, Value: val, Pos: fname.Pos})
		} else if p.at(clex.LBracket) {
			// [idx] = val designated array initializer.
			p.skipBrackets()
			p.expect(clex.Assign)
			lst.Elems = append(lst.Elems, p.parseInitializer())
		} else {
			lst.Elems = append(lst.Elems, p.parseInitializer())
		}
		if !p.accept(clex.Comma) {
			break
		}
	}
	p.expect(clex.RBrace)
	return lst
}
