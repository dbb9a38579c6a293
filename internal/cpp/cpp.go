// Package cpp implements the C preprocessor stage of the checker pipeline.
//
// It supports the directives that matter for kernel analysis: #define /
// #undef for object- and function-like macros (with # stringize and ##
// paste), #include against a pluggable file provider, and the conditional
// family (#if/#ifdef/#ifndef/#elif/#else/#endif with defined() and integer
// expressions).
//
// Its distinguishing feature, required by anti-pattern P3 (smartloop break),
// is provenance: every token produced by macro expansion carries the chain of
// macro names it came from (clex.Token.Origin), so later stages can tell that
// an of_find_matching_node call was injected by the for_each_matching_node
// smartloop rather than written by the developer.
package cpp

import (
	"errors"
	"fmt"
	"repro/internal/arena"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/clex"
)

// ErrBudgetExceeded is the sentinel wrapped by the diagnostics the expansion
// guards produce: the per-Process token budget (a doubling macro chain) and
// the expansion depth cap (a deep linear chain). The preprocessor degrades
// to a truncated but well-formed token stream either way; callers that need
// to distinguish "pathological input" from ordinary diagnostics test with
// errors.Is(err, cpp.ErrBudgetExceeded).
var ErrBudgetExceeded = errors.New("cpp: macro expansion budget exceeded")

// FileProvider resolves #include paths. Includes are resolved by exact path
// first, then by suffix match (kernel-style <linux/of.h> names).
type FileProvider interface {
	// ReadFile returns the contents of path, or false if unknown.
	ReadFile(path string) (string, bool)
}

// MapFiles is an in-memory FileProvider.
//
// Lookups scan every stored path on a suffix match; prefer NewIndexedFiles
// for providers consulted once per #include per translation unit.
type MapFiles map[string]string

// ReadFile implements FileProvider. Several stored paths can share the
// requested suffix; the lexicographically smallest path wins, so resolution
// never depends on map iteration order.
func (m MapFiles) ReadFile(path string) (string, bool) {
	if s, ok := m[path]; ok {
		return s, true
	}
	best, found := "", false
	for p := range m {
		if strings.HasSuffix(p, "/"+path) && (!found || p < best) {
			best, found = p, true
		}
	}
	if found {
		return m[best], true
	}
	return "", false
}

// IndexedFiles is an in-memory FileProvider with a precomputed suffix index:
// every directory-boundary suffix of every stored path maps to the
// lexicographically smallest path carrying it, so kernel-style
// <linux/of.h> lookups cost one map probe instead of a scan over all files.
// The index is immutable after construction and safe for concurrent reads.
type IndexedFiles struct {
	files    map[string]string
	bySuffix map[string]string // suffix → smallest full path
}

// NewIndexedFiles builds the suffix index over files. The map is retained
// (not copied); callers must not mutate it afterwards.
func NewIndexedFiles(files map[string]string) *IndexedFiles {
	ix := &IndexedFiles{files: files, bySuffix: map[string]string{}}
	for p := range files {
		for i := 0; i < len(p); i++ {
			if p[i] != '/' {
				continue
			}
			sfx := p[i+1:]
			if cur, ok := ix.bySuffix[sfx]; !ok || p < cur {
				ix.bySuffix[sfx] = p
			}
		}
	}
	return ix
}

// ReadFile implements FileProvider: exact path first, then the
// directory-boundary suffix index (smallest path wins — the same resolution
// rule as MapFiles, at O(1) per lookup).
func (ix *IndexedFiles) ReadFile(path string) (string, bool) {
	if s, ok := ix.files[path]; ok {
		return s, true
	}
	if p, ok := ix.bySuffix[path]; ok {
		return ix.files[p], true
	}
	return "", false
}

// Macro is a single #define.
type Macro struct {
	Name       string
	Params     []string // nil for object-like macros
	Variadic   bool
	Body       []clex.Token
	FuncLike   bool
	DefinedAt  clex.Pos
	Predefined bool
}

// IsLoopMacro heuristically reports whether the macro expands to a for(...)
// header — the shape of kernel "smartloops" such as for_each_child_of_node.
// The smartloop registry in internal/apidb is authoritative; this is used to
// discover new smartloops during lexer parsing (§6.1).
func (m *Macro) IsLoopMacro() bool {
	for _, t := range m.Body {
		if t.Kind == clex.Keyword && t.Text == "for" {
			return true
		}
	}
	return false
}

// IncludeDep records one #include resolution for content-hash cache keys:
// the path as requested by the directive and the hex SHA-256 of the content
// served, or "" when the provider could not resolve it. A cached
// preprocessing result is valid only while every recorded dep resolves to
// the same content (and every miss still misses).
type IncludeDep struct {
	Path string
	Hash string
}

// Result is the output of preprocessing one translation unit.
type Result struct {
	Tokens []clex.Token
	// Macros is the macro table at end of file (includes macros picked up
	// from headers); used by the smartloop lexer parser.
	Macros map[string]*Macro
	// MissingIncludes lists include paths the provider could not resolve.
	// Unresolved includes are skipped (kernel code includes far more than
	// our analysis needs), but recorded for diagnostics.
	MissingIncludes []string
	Errors          []error
	// Includes is the transitive include closure (populated only when
	// TrackIncludes was set), in first-touch order.
	Includes []IncludeDep
	// Stats counts the preprocessing work this translation unit cost;
	// purely observational (the obs layer aggregates it per run).
	Stats Stats
}

// Stats counts one translation unit's preprocessing work. All quantities
// are deterministic functions of the input, so per-run aggregates compare
// equal across worker counts.
type Stats struct {
	// Expansions is the number of macro expansions performed (object- and
	// function-like uses that actually expanded).
	Expansions int
	// ExpandedTokens is the total token count charged to the expansion
	// budget — every token that passed through the expansion machinery.
	ExpandedTokens int
	// IncludesResolved / IncludesMissing count #include resolutions.
	IncludesResolved int
	IncludesMissing  int
}

// Preprocessor expands one translation unit.
type Preprocessor struct {
	files  FileProvider
	macros map[string]*Macro

	// hcache, when set, shares lexed header token lines across the
	// translation units of a run (see HeaderCache).
	hcache *HeaderCache
	// lexStats, when set, accumulates lexer counters for buffers this
	// preprocessor lexes inline (the TU itself, and headers when no header
	// cache is attached).
	lexStats *clex.Stats
	// stats counts this Process call's work (copied into Result.Stats).
	stats Stats
	// trackIncludes records the include closure into Result.Includes.
	trackIncludes bool

	out      []clex.Token
	missing  []string
	errs     []error
	depth    int // include depth guard
	included map[string]bool
	deps     []IncludeDep
	depSeen  map[string]bool

	// Expansion guards. Hide sets stop self-recursion but not pathological
	// non-recursive inputs: a chain of distinct macros that each double the
	// token stream is exponential in the chain length, and a linear chain of
	// thousands of one-token macros nests the expansion recursion as deep as
	// the chain. The budget bounds total emitted tokens per Process; the
	// depth cap bounds stack growth. Real kernel headers sit orders of
	// magnitude below both limits.
	expBudget   int
	expOverflow bool
	expDepth    int
	expDepthErr bool

	// macroSlab backs #define's Macro values. Macros are retained by the
	// Unit, so the chunks ride along with it; slab allocation just collapses
	// the per-define pointer allocation (one of the front end's hottest)
	// into one per chunk.
	macroSlab arena.Slab[Macro]

	// params backs Macro.Params: parameter lists are tiny and immutable
	// after define, so they are carved as full-cap windows of chunks (see
	// arena.Windows) instead of one allocation per function-like macro.
	params arena.Windows[string]
}

const (
	maxIncludeDepth = 32
	maxExpandTokens = 1 << 21
	maxExpandDepth  = 256
)

// New returns a preprocessor using the given file provider (may be nil if the
// unit has no resolvable includes).
func New(files FileProvider) *Preprocessor {
	return &Preprocessor{
		files:     files,
		macros:    map[string]*Macro{},
		included:  map[string]bool{},
		expBudget: maxExpandTokens,
	}
}

// WithHeaderCache shares header lexing through hc (see HeaderCache) and
// returns p.
func (p *Preprocessor) WithHeaderCache(hc *HeaderCache) *Preprocessor {
	p.hcache = hc
	return p
}

// WithLexStats accumulates lexer counters for inline-lexed buffers into st
// and returns p (see clex.Stats).
func (p *Preprocessor) WithLexStats(st *clex.Stats) *Preprocessor {
	p.lexStats = st
	return p
}

// WithOutBuffer makes p emit expanded tokens into buf's backing array
// (starting empty) and returns p. The caller owns the buffer's lifecycle:
// after the parse consumes Result.Tokens the array can be recycled, which
// is how the front end pools per-TU token storage. Without this option the
// output array is freshly allocated.
func (p *Preprocessor) WithOutBuffer(buf []clex.Token) *Preprocessor {
	p.out = buf[:0]
	return p
}

// TrackIncludes enables include-closure recording (Result.Includes) and
// returns p.
func (p *Preprocessor) TrackIncludes() *Preprocessor {
	p.trackIncludes = true
	p.depSeen = map[string]bool{}
	return p
}

// Define installs a predefined macro (e.g. __KERNEL__) before processing.
func (p *Preprocessor) Define(name, body string) {
	toks, _ := clex.Tokenize("<predef>", body, clex.Config{})
	p.macros[name] = &Macro{Name: name, Body: toks, Predefined: true}
}

// Process preprocesses the named source buffer and returns the expanded token
// stream.
func (p *Preprocessor) Process(file, src string) *Result {
	p.processFile(file, src)
	p.stats.ExpandedTokens = maxExpandTokens - p.expBudget
	return &Result{
		Tokens:          p.out,
		Macros:          p.macros,
		MissingIncludes: p.missing,
		Errors:          p.errs,
		Includes:        p.deps,
		Stats:           p.stats,
	}
}

func (p *Preprocessor) errorf(pos clex.Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// condState tracks one level of #if nesting.
type condState struct {
	active      bool // this branch is being emitted
	everActive  bool // some branch at this level was emitted
	parentLive  bool
	sawElse     bool
	openedAtPos clex.Pos
}

func (p *Preprocessor) processFile(file, src string) {
	if p.depth >= maxIncludeDepth {
		p.errs = append(p.errs, fmt.Errorf("%s: include depth exceeds %d", file, maxIncludeDepth))
		return
	}
	p.depth++
	defer func() { p.depth-- }()

	// Lexing is macro-independent, so included headers (depth > 1 after the
	// increment above) come pre-lexed from the shared cache when one is
	// attached. Anything else (the top-level TU, unique per file) is lexed
	// into pooled lines that are garbage once this call returns, so define
	// copies the bodies of macros defined on them.
	var lines *clex.Lines
	pooled := p.hcache == nil || p.depth == 1
	if pooled {
		lines = linesPool.Get().(*clex.Lines)
		defer func() {
			lines.Reset()
			linesPool.Put(lines)
		}()
		p.errs = append(p.errs, lines.Tokenize(file, src, p.lexStats)...)
	} else {
		h := p.hcache.lex(file, src)
		lines = h.lines
		p.errs = append(p.errs, h.errs...)
	}

	var conds []condState
	live := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	for li := 0; li < lines.Len(); li++ {
		line := lines.Line(li)
		if len(line) == 0 {
			continue
		}
		if line[0].Kind == clex.Hash {
			p.directive(line, pooled, &conds, live)
			continue
		}
		if !live() {
			continue
		}
		// Expand into a pooled scratch buffer, then copy into the output:
		// the per-line expansion result is transient, so its backing array
		// is recycled instead of re-allocated for every line of every TU.
		bp := expandBufPool.Get().(*[]clex.Token)
		buf := p.expandInto((*bp)[:0], line, nil)
		p.out = append(p.out, buf...)
		*bp = buf[:0]
		expandBufPool.Put(bp)
	}
	for _, c := range conds {
		p.errorf(c.openedAtPos, "unterminated conditional")
	}
}

// linesPool recycles the line storage of inline-lexed files. Lines are
// Reset before a Put, so pooled tokens pin no source strings.
var linesPool = sync.Pool{New: func() any { return new(clex.Lines) }}

// expandBufPool recycles the scratch buffers used for per-line macro
// expansion. Buffer contents never survive a Put: the expansion result is
// copied into the preprocessor output before the buffer is recycled, so the
// pool cannot affect results — only allocation rate.
var expandBufPool = sync.Pool{
	New: func() any {
		b := make([]clex.Token, 0, 128)
		return &b
	},
}

// directive runs one directive line; pooled says the line's storage is
// recycled when its file is done.
func (p *Preprocessor) directive(line []clex.Token, pooled bool, conds *[]condState, live func() bool) {
	if len(line) < 2 {
		return // lone '#' is a null directive
	}
	name := line[1].Text
	rest := line[2:]
	switch name {
	case "if", "ifdef", "ifndef":
		parentLive := live()
		active := false
		if parentLive {
			switch name {
			case "ifdef":
				active = len(rest) > 0 && p.macros[rest[0].Text] != nil
			case "ifndef":
				active = len(rest) > 0 && p.macros[rest[0].Text] == nil
			default:
				active = p.evalCondition(rest, line[0].Pos)
			}
		}
		*conds = append(*conds, condState{
			active: active, everActive: active,
			parentLive: parentLive, openedAtPos: line[0].Pos,
		})
	case "elif":
		if len(*conds) == 0 {
			p.errorf(line[0].Pos, "#elif without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			p.errorf(line[0].Pos, "#elif after #else")
			return
		}
		if c.parentLive && !c.everActive && p.evalCondition(rest, line[0].Pos) {
			c.active = true
			c.everActive = true
		} else {
			c.active = false
		}
	case "else":
		if len(*conds) == 0 {
			p.errorf(line[0].Pos, "#else without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		c.sawElse = true
		c.active = c.parentLive && !c.everActive
		if c.active {
			c.everActive = true
		}
	case "endif":
		if len(*conds) == 0 {
			p.errorf(line[0].Pos, "#endif without #if")
			return
		}
		*conds = (*conds)[:len(*conds)-1]
	case "define":
		if live() {
			p.define(rest, line[0].Pos, pooled)
		}
	case "undef":
		if live() && len(rest) > 0 {
			delete(p.macros, rest[0].Text)
		}
	case "include":
		if live() {
			p.include(rest, line[0].Pos)
		}
	case "pragma", "error", "warning", "line":
		// Ignored: irrelevant to the analysis.
	default:
		p.errorf(line[0].Pos, "unknown directive #%s", name)
	}
}

func (p *Preprocessor) define(rest []clex.Token, pos clex.Pos, pooled bool) {
	if len(rest) == 0 || rest[0].Kind != clex.Ident && rest[0].Kind != clex.Keyword {
		p.errorf(pos, "malformed #define")
		return
	}
	m := p.macroSlab.New(Macro{Name: rest[0].Text, DefinedAt: rest[0].Pos})
	i := 1
	// Function-like only when '(' immediately follows the name.
	if i < len(rest) && rest[i].Kind == clex.LParen && !rest[i].LeadingSpace {
		m.FuncLike = true
		nParams := 0
		for j := i + 1; j < len(rest) && rest[j].Kind != clex.RParen; j++ {
			if rest[j].Kind == clex.Ident {
				nParams++
			}
		}
		m.Params = p.params.Take(nParams)
		i++
		for i < len(rest) && rest[i].Kind != clex.RParen {
			switch rest[i].Kind {
			case clex.Ident:
				m.Params = append(m.Params, rest[i].Text)
			case clex.Ellipsis:
				m.Variadic = true
			case clex.Comma:
			default:
				p.errorf(rest[i].Pos, "malformed macro parameter list")
			}
			i++
		}
		if i < len(rest) {
			i++ // ')'
		}
	}
	// A header line belongs to the run-shared header cache, so the body
	// aliases it for free; a full-slice cap keeps any append by a consumer
	// from spilling into neighboring line storage. A pooled line is reused
	// once its file is done, so the body is copied out of it.
	if pooled {
		m.Body = slices.Clone(rest[i:])
	} else {
		m.Body = rest[i:len(rest):len(rest)]
	}
	p.macros[m.Name] = m
}

func (p *Preprocessor) include(rest []clex.Token, pos clex.Pos) {
	path := includePath(rest)
	if path == "" {
		p.errorf(pos, "malformed #include")
		return
	}
	if p.included[path] {
		return // headers are idempotent in our corpus; treat as #pragma once
	}
	if p.files == nil {
		p.missing = append(p.missing, path)
		p.stats.IncludesMissing++
		p.recordDep(path, "", false)
		return
	}
	src, ok := p.files.ReadFile(path)
	if !ok {
		p.missing = append(p.missing, path)
		p.stats.IncludesMissing++
		p.recordDep(path, "", false)
		return
	}
	p.stats.IncludesResolved++
	p.recordDep(path, src, true)
	p.included[path] = true
	p.processFile(path, src)
}

// recordDep notes one include resolution for the closure fingerprint. A
// missing include is recorded with an empty hash — the cached result is
// valid only while that path still fails to resolve.
func (p *Preprocessor) recordDep(path, content string, resolved bool) {
	if !p.trackIncludes || p.depSeen[path] {
		return
	}
	p.depSeen[path] = true
	h := ""
	if resolved {
		if p.hcache != nil {
			h = p.hcache.HashOf(path, content)
		} else {
			h = hashContent(content)
		}
	}
	p.deps = append(p.deps, IncludeDep{Path: path, Hash: h})
}

// includePath reassembles the include operand: either a string literal or a
// <...> token sequence.
func includePath(rest []clex.Token) string {
	if len(rest) == 0 {
		return ""
	}
	if rest[0].Kind == clex.StringLit {
		return strings.Trim(rest[0].Text, `"`)
	}
	if rest[0].Kind == clex.Lt {
		var b strings.Builder
		for _, t := range rest[1:] {
			if t.Kind == clex.Gt {
				return b.String()
			}
			b.WriteString(t.Text)
		}
	}
	return ""
}

// --- expansion ---

// hideSet is the set of macro names currently being expanded (recursion
// guard, painted-blue rule). It is an immutable linked list threaded down
// the expansion recursion — pushing a name is one small allocation instead
// of cloning a map at every nesting level.
type hideSet struct {
	name string
	up   *hideSet
}

func (h *hideSet) has(name string) bool {
	for ; h != nil; h = h.up {
		if h.name == name {
			return true
		}
	}
	return false
}

// expandInto macro-expands toks, appending the result to dst and returning
// the extended slice. Appending into a caller-owned destination lets the
// whole expansion recursion share buffers instead of allocating and copying
// an intermediate slice per macro level.
func (p *Preprocessor) expandInto(dst []clex.Token, toks []clex.Token, hide *hideSet) []clex.Token {
	for i := 0; i < len(toks); i++ {
		if p.expOverflow {
			return dst
		}
		t := toks[i]
		if t.Kind != clex.Ident || t.Text == "defined" {
			if !p.spend(1, t.Pos) {
				return dst
			}
			dst = append(dst, t)
			continue
		}
		m := p.macros[t.Text]
		if m == nil || hide.has(t.Text) {
			if !p.spend(1, t.Pos) {
				return dst
			}
			dst = append(dst, t)
			continue
		}
		if m.FuncLike {
			args, consumed, ok := parseArgs(toks[i+1:])
			if !ok {
				if !p.spend(1, t.Pos) {
					return dst
				}
				dst = append(dst, t) // name not followed by '(': not a call
				continue
			}
			i += consumed
			dst = p.expandFuncLikeInto(dst, m, args, t, hide)
		} else {
			dst = p.expandObjectLikeInto(dst, m, t, hide)
		}
	}
	return dst
}

// spend debits n tokens from the per-Process expansion budget. On exhaustion
// it records one diagnostic, flips expOverflow, and every expansion loop
// drains promptly, leaving a truncated but well-formed token stream.
func (p *Preprocessor) spend(n int, pos clex.Pos) bool {
	if p.expOverflow {
		return false
	}
	if n > p.expBudget {
		p.expOverflow = true
		p.errs = append(p.errs, fmt.Errorf("%s: macro expansion exceeds %d tokens; output truncated: %w",
			pos, maxExpandTokens, ErrBudgetExceeded))
		return false
	}
	p.expBudget -= n
	return true
}

// enterExpansion guards recursion depth; when the cap is hit the macro use is
// left unexpanded (emitted verbatim by the caller) with one diagnostic.
func (p *Preprocessor) enterExpansion(use clex.Token) bool {
	if p.expDepth >= maxExpandDepth {
		if !p.expDepthErr {
			p.expDepthErr = true
			p.errs = append(p.errs, fmt.Errorf("%s: macro expansion nests deeper than %d; %s left unexpanded: %w",
				use.Pos, maxExpandDepth, use.Text, ErrBudgetExceeded))
		}
		return false
	}
	p.expDepth++
	p.stats.Expansions++
	return true
}

// finishExpansion rewrites the freshly produced expansion range: every token
// is retargeted to the expansion site (diagnostics point at the use, not the
// definition) and has the expanding macro prepended to its provenance chain.
// Tokens arriving with no prior provenance — the common case — share one
// origin slice instead of allocating one each.
func finishExpansion(out []clex.Token, macro string, pos clex.Pos) {
	var shared []string
	for i := range out {
		out[i].Pos = pos
		if len(out[i].Origin) == 0 {
			if shared == nil {
				shared = []string{macro}
			}
			out[i].Origin = shared
		} else {
			out[i].Origin = append([]string{macro}, out[i].Origin...)
		}
	}
}

// parseArgs parses a macro argument list starting at a '(' token. Returns the
// raw (unexpanded) argument token slices, the number of tokens consumed
// (including both parens), and whether a call was present.
func parseArgs(toks []clex.Token) (args [][]clex.Token, consumed int, ok bool) {
	if len(toks) == 0 || toks[0].Kind != clex.LParen {
		return nil, 0, false
	}
	depth := 0
	var cur []clex.Token
	for i, t := range toks {
		switch t.Kind {
		case clex.LParen:
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case clex.RParen:
			depth--
			if depth == 0 {
				args = append(args, cur)
				return args, i + 1, true
			}
			cur = append(cur, t)
		case clex.Comma:
			if depth == 1 {
				args = append(args, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, false // unterminated; treat as non-call
}

func (p *Preprocessor) expandObjectLikeInto(dst []clex.Token, m *Macro, use clex.Token, hide *hideSet) []clex.Token {
	if !p.enterExpansion(use) {
		if p.spend(1, use.Pos) {
			dst = append(dst, use)
		}
		return dst
	}
	mark := len(dst)
	dst = p.expandInto(dst, m.Body, &hideSet{name: m.Name, up: hide})
	// The provenance retarget below re-walks the freshly expanded range, so
	// every enclosing macro level pays it again: without charging it to the
	// budget, a doubling chain does output×depth work after the token budget
	// is long gone. On overflow the truncated range keeps raw provenance.
	if p.spend(len(dst)-mark, use.Pos) {
		finishExpansion(dst[mark:], m.Name, use.Pos)
	}
	p.expDepth--
	return dst
}

func (p *Preprocessor) expandFuncLikeInto(dst []clex.Token, m *Macro, args [][]clex.Token, use clex.Token, hide *hideSet) []clex.Token {
	if !p.enterExpansion(use) {
		if p.spend(1, use.Pos) {
			dst = append(dst, use)
		}
		return dst
	}
	defer func() { p.expDepth-- }()
	// paramIndex resolves a body identifier to its parameter slot; the
	// __VA_ARGS__ pseudo-parameter of a variadic macro gets the slot after
	// the named ones. Parameter lists are tiny, so a linear scan beats a
	// per-expansion map.
	paramIndex := func(name string) int {
		for i, pn := range m.Params {
			if pn == name {
				return i
			}
		}
		if m.Variadic && name == "__VA_ARGS__" {
			return len(m.Params)
		}
		return -1
	}
	rawFor := func(name string) ([]clex.Token, bool) {
		idx := paramIndex(name)
		if idx < 0 {
			return nil, false
		}
		if idx == len(m.Params) && m.Variadic && name == "__VA_ARGS__" {
			var va []clex.Token
			for i := len(m.Params); i < len(args); i++ {
				if i > len(m.Params) {
					va = append(va, clex.Token{Kind: clex.Comma, Text: ",", Pos: use.Pos})
				}
				va = append(va, args[i]...)
			}
			return va, true
		}
		if idx < len(args) {
			return args[idx], true
		}
		return nil, true // missing arg expands to nothing
	}
	// Standard prescan: arguments are macro-expanded before substitution
	// (with the caller's hide set — the macro being expanded is not yet
	// painted blue for its own arguments), except where the parameter is an
	// operand of # or ##, which see the raw spelling. Expansions are
	// memoized per parameter slot.
	expCache := make([][]clex.Token, len(m.Params)+1)
	expDone := make([]bool, len(m.Params)+1)
	expandedFor := func(name string) ([]clex.Token, bool) {
		idx := paramIndex(name)
		if idx < 0 {
			return nil, false
		}
		if !expDone[idx] {
			raw, _ := rawFor(name)
			expCache[idx] = p.expandInto(nil, raw, hide)
			expDone[idx] = true
		}
		return expCache[idx], true
	}

	// Substitute parameters, handling # and ##, into a pooled scratch
	// buffer (discarded once expanded below).
	sp := expandBufPool.Get().(*[]clex.Token)
	subst := (*sp)[:0]
	body := m.Body
	for i := 0; i < len(body); i++ {
		if p.expOverflow {
			break
		}
		t := body[i]
		// Stringize: # param
		if t.Kind == clex.Hash && i+1 < len(body) && body[i+1].Kind == clex.Ident {
			if arg, ok := rawFor(body[i+1].Text); ok {
				if !p.spend(1, use.Pos) {
					break
				}
				subst = append(subst, clex.Token{
					Kind: clex.StringLit, Text: strconv.Quote(tokensText(arg)), Pos: use.Pos,
				})
				i++
				continue
			}
		}
		// Paste: A ## B (raw operands).
		if i+2 < len(body) && body[i+1].Kind == clex.HashHash {
			left := substituteOne(t, rawFor)
			right := substituteOne(body[i+2], rawFor)
			pasted := pasteTokens(left, right, use.Pos)
			if !p.spend(len(pasted), use.Pos) {
				break
			}
			subst = append(subst, pasted...)
			i += 2
			continue
		}
		if t.Kind == clex.Ident {
			if arg, ok := expandedFor(t.Text); ok {
				if !p.spend(len(arg), use.Pos) {
					break
				}
				subst = append(subst, arg...)
				continue
			}
		}
		if !p.spend(1, use.Pos) {
			break
		}
		subst = append(subst, t)
	}
	mark := len(dst)
	dst = p.expandInto(dst, subst, &hideSet{name: m.Name, up: hide})
	// Charge the provenance retarget like expandObjectLikeInto does.
	if p.spend(len(dst)-mark, use.Pos) {
		finishExpansion(dst[mark:], m.Name, use.Pos)
	}
	*sp = subst[:0]
	expandBufPool.Put(sp)
	return dst
}

// substituteOne replaces a single body token with its argument tokens when it
// names a parameter; otherwise returns the token unchanged.
func substituteOne(t clex.Token, argFor func(string) ([]clex.Token, bool)) []clex.Token {
	if t.Kind == clex.Ident {
		if arg, ok := argFor(t.Text); ok {
			return append([]clex.Token(nil), arg...)
		}
	}
	return []clex.Token{t}
}

// pasteTokens implements ##: the last token of left is concatenated with the
// first token of right and relexed.
func pasteTokens(left, right []clex.Token, pos clex.Pos) []clex.Token {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	glued := left[len(left)-1].Text + right[0].Text
	relexed, errs := clex.Tokenize(pos.File, glued, clex.Config{})
	var out []clex.Token
	out = append(out, left[:len(left)-1]...)
	if len(errs) == 0 && len(relexed) > 0 {
		for i := range relexed {
			relexed[i].Pos = pos
		}
		out = append(out, relexed...)
	} else {
		out = append(out, left[len(left)-1], right[0])
	}
	out = append(out, right[1:]...)
	return out
}

func tokensText(toks []clex.Token) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && t.LeadingSpace {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// --- conditional expression evaluation ---

// evalCondition evaluates a #if expression. Supported: integer literals,
// defined(X) / defined X, identifiers (0 if undefined, else their expansion),
// unary ! - ~, binary || && == != < > <= >= + - * / % | & ^ << >>, parens,
// ternary. Undefined behaviour collapses to 0, matching cpp semantics.
func (p *Preprocessor) evalCondition(toks []clex.Token, pos clex.Pos) bool {
	// Replace defined(X) before expansion.
	var pre []clex.Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == clex.Ident && t.Text == "defined" {
			name := ""
			if i+1 < len(toks) && toks[i+1].Kind == clex.LParen {
				if i+2 < len(toks) && (toks[i+2].Kind == clex.Ident || toks[i+2].Kind == clex.Keyword) {
					name = toks[i+2].Text
				}
				for i+1 < len(toks) && toks[i+1].Kind != clex.RParen {
					i++
				}
				i++ // ')'
			} else if i+1 < len(toks) {
				name = toks[i+1].Text
				i++
			}
			val := "0"
			if p.macros[name] != nil {
				val = "1"
			}
			pre = append(pre, clex.Token{Kind: clex.IntLit, Text: val, Pos: t.Pos})
			continue
		}
		pre = append(pre, t)
	}
	expanded := p.expandInto(nil, pre, nil)
	ev := condEval{toks: expanded}
	v := ev.ternary()
	if ev.bad {
		// Malformed condition: conservatively false.
		return false
	}
	return v != 0
}

type condEval struct {
	toks []clex.Token
	pos  int
	bad  bool
}

func (e *condEval) peek() clex.Token {
	if e.pos < len(e.toks) {
		return e.toks[e.pos]
	}
	return clex.Token{Kind: clex.EOF}
}

func (e *condEval) next() clex.Token {
	t := e.peek()
	e.pos++
	return t
}

func (e *condEval) ternary() int64 {
	c := e.or()
	if e.peek().Kind == clex.Question {
		e.next()
		a := e.ternary()
		if e.peek().Kind != clex.Colon {
			e.bad = true
			return 0
		}
		e.next()
		b := e.ternary()
		if c != 0 {
			return a
		}
		return b
	}
	return c
}

func (e *condEval) or() int64 {
	v := e.and()
	for e.peek().Kind == clex.OrOr {
		e.next()
		r := e.and()
		if v != 0 || r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) and() int64 {
	v := e.cmp()
	for e.peek().Kind == clex.AndAnd {
		e.next()
		r := e.cmp()
		if v != 0 && r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) cmp() int64 {
	v := e.add()
	for {
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch e.peek().Kind {
		case clex.Eq:
			e.next()
			v = b2i(v == e.add())
		case clex.Ne:
			e.next()
			v = b2i(v != e.add())
		case clex.Lt:
			e.next()
			v = b2i(v < e.add())
		case clex.Gt:
			e.next()
			v = b2i(v > e.add())
		case clex.Le:
			e.next()
			v = b2i(v <= e.add())
		case clex.Ge:
			e.next()
			v = b2i(v >= e.add())
		default:
			return v
		}
	}
}

func (e *condEval) add() int64 {
	v := e.mul()
	for {
		switch e.peek().Kind {
		case clex.Plus:
			e.next()
			v += e.mul()
		case clex.Minus:
			e.next()
			v -= e.mul()
		case clex.Shl:
			e.next()
			v <<= uint(e.mul()) & 63
		case clex.Shr:
			e.next()
			v >>= uint(e.mul()) & 63
		case clex.Amp:
			e.next()
			v &= e.mul()
		case clex.Pipe:
			e.next()
			v |= e.mul()
		case clex.Caret:
			e.next()
			v ^= e.mul()
		default:
			return v
		}
	}
}

func (e *condEval) mul() int64 {
	v := e.unary()
	for {
		switch e.peek().Kind {
		case clex.Star:
			e.next()
			v *= e.unary()
		case clex.Slash:
			e.next()
			d := e.unary()
			if d == 0 {
				e.bad = true
				return 0
			}
			v /= d
		case clex.Percent:
			e.next()
			d := e.unary()
			if d == 0 {
				e.bad = true
				return 0
			}
			v %= d
		default:
			return v
		}
	}
}

func (e *condEval) unary() int64 {
	switch t := e.peek(); t.Kind {
	case clex.Not:
		e.next()
		if e.unary() == 0 {
			return 1
		}
		return 0
	case clex.Minus:
		e.next()
		return -e.unary()
	case clex.Tilde:
		e.next()
		return ^e.unary()
	case clex.Plus:
		e.next()
		return e.unary()
	case clex.LParen:
		e.next()
		v := e.ternary()
		if e.peek().Kind != clex.RParen {
			e.bad = true
			return 0
		}
		e.next()
		return v
	case clex.IntLit:
		e.next()
		return parseCInt(t.Text)
	case clex.CharLit:
		e.next()
		if len(t.Text) >= 3 {
			return int64(t.Text[1])
		}
		return 0
	case clex.Ident, clex.Keyword:
		e.next()
		return 0 // undefined identifier in #if is 0
	default:
		e.bad = true
		return 0
	}
}

// parseCInt parses a C integer literal, stripping suffixes.
func parseCInt(s string) int64 {
	s = strings.TrimRight(s, "uUlL")
	if s == "" {
		return 0
	}
	var v int64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseInt(s[2:], 16, 64)
	case len(s) > 1 && s[0] == '0':
		v, err = strconv.ParseInt(s[1:], 8, 64)
	default:
		v, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil {
		return 0
	}
	return v
}
