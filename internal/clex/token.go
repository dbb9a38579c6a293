// Package clex implements a lexer for the C dialect used by the Linux
// kernel (C99 plus the GNU extensions that appear in kernel headers).
//
// The lexer is the first stage of the checker pipeline described in §6.1 of
// the paper: its token stream feeds the preprocessor (internal/cpp), which in
// turn feeds the parser (internal/cparse). Tokens carry precise source
// positions and, after macro expansion, an origin-macro provenance chain that
// later stages use to recognize "smartloop" contexts.
package clex

import (
	"fmt"
	"strconv"
)

// Kind classifies a token.
type Kind int

// Token kinds. Punctuation kinds are named after their spelling.
const (
	EOF Kind = iota
	Ident
	Keyword
	IntLit
	CharLit
	StringLit
	FloatLit
	Comment // retained only when Config.KeepComments is set
	Newline // retained only when Config.KeepNewlines is set (cpp needs them)
	Hash    // '#' at any position; cpp decides whether it starts a directive
	HashHash

	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Semi
	Comma
	Colon
	Question
	Ellipsis

	Assign     // =
	PlusAssign // +=
	MinusAssign
	StarAssign
	SlashAssign
	PercentAssign
	AmpAssign
	PipeAssign
	CaretAssign
	ShlAssign
	ShrAssign

	Plus
	Minus
	Star
	Slash
	Percent
	Inc // ++
	Dec // --

	Eq // ==
	Ne
	Lt
	Gt
	Le
	Ge

	AndAnd
	OrOr
	Not

	Amp
	Pipe
	Caret
	Tilde
	Shl
	Shr

	Dot
	Arrow // ->
)

// KindMax is the largest valid Kind value — the decode-side validity bound
// for serialized tokens (internal/cpg's cache codec).
const KindMax = Arrow

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "Ident", Keyword: "Keyword", IntLit: "IntLit",
	CharLit: "CharLit", StringLit: "StringLit", FloatLit: "FloatLit",
	Comment: "Comment", Newline: "Newline", Hash: "#", HashHash: "##",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",", Colon: ":",
	Question: "?", Ellipsis: "...",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=", PercentAssign: "%=", AmpAssign: "&=",
	PipeAssign: "|=", CaretAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Inc: "++", Dec: "--",
	Eq: "==", Ne: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	AndAnd: "&&", OrOr: "||", Not: "!",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Shl: "<<", Shr: ">>",
	Dot: ".", Arrow: "->",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// String renders the position in the conventional file:line:col form. It is
// on the checker hot path (report keys, per-event dedup), so it appends with
// strconv instead of going through fmt.
func (p Pos) String() string {
	b := make([]byte, 0, len(p.File)+12)
	if p.File != "" {
		b = append(b, p.File...)
		b = append(b, ':')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(p.Col), 10)
	return string(b)
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Text string // exact source spelling (for Ident/Keyword/literals)
	Pos  Pos

	// Origin is the chain of macro names this token was expanded from,
	// outermost first. It is empty for tokens that appear literally in the
	// source and is populated by internal/cpp during expansion.
	Origin []string

	// LeadingSpace records whether whitespace preceded the token; the
	// preprocessor uses it when stringizing.
	LeadingSpace bool
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Keyword, IntLit, CharLit, StringLit, FloatLit, Comment:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// FromMacro reports whether the token was produced by expanding the named
// macro (at any nesting depth).
func (t Token) FromMacro(name string) bool {
	for _, m := range t.Origin {
		if m == name {
			return true
		}
	}
	return false
}

// keywords is the C99 + kernel-GNU keyword set. Kernel-specific qualifiers
// that behave like no-ops for our analysis (e.g. __init) are handled by the
// parser, not the lexer.
var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true,
	"else": true, "enum": true, "extern": true, "float": true, "for": true,
	"goto": true, "if": true, "inline": true, "int": true, "long": true,
	"register": true, "restrict": true, "return": true, "short": true,
	"signed": true, "sizeof": true, "static": true, "struct": true,
	"switch": true, "typedef": true, "union": true, "unsigned": true,
	"void": true, "volatile": true, "while": true,
	// GNU / kernel
	"__attribute__": true, "__inline__": true, "__asm__": true,
	"typeof": true, "__typeof__": true, "_Bool": true,
}
