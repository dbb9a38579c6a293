// Package cfg builds per-function control-flow graphs from internal/cast
// trees.
//
// A Graph is the substrate for anti-pattern matching: the paper's semantic
// templates (§3.2) are path templates like
// F_start → S_G → B_error → F_end, so the graph exposes basic blocks, an
// error-handling classification per block (B_error), and bounded path
// enumeration with loops taken at most once.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
)

// Block is a basic block: a maximal straight-line statement sequence.
type Block struct {
	ID    int
	Stmts []cast.Stmt

	Succs []*Block
	Preds []*Block

	// Label is set when the block begins at a C label.
	Label string

	// IsError marks error-handling blocks: branches taken on a failed
	// error test, and blocks headed by error-ish labels (err/fail/out/...).
	IsError bool

	// LoopHead marks loop condition blocks (back-edge targets).
	LoopHead bool

	// FromMacro is the outermost macro that generated the block's opening
	// statement, or "" (smartloop body detection).
	FromMacro string
}

// String renders the block for diagnostics.
func (b *Block) String() string {
	var tags []string
	if b.Label != "" {
		tags = append(tags, "label="+b.Label)
	}
	if b.IsError {
		tags = append(tags, "error")
	}
	if b.LoopHead {
		tags = append(tags, "loop")
	}
	return fmt.Sprintf("B%d[%s]", b.ID, strings.Join(tags, ","))
}

// Graph is the control-flow graph of one function.
type Graph struct {
	Fn     *cast.FuncDef
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// builder state
type builder struct {
	g      *Graph
	cur    *Block
	breaks []*Block // innermost-last break targets
	conts  []*Block // innermost-last continue targets
	labels map[string]*Block
	gotos  []pendingGoto

	// Blocks and condition pseudo-statements are the builder's two hot
	// allocations; both live exactly as long as the Graph, so they come from
	// slabs (see internal/arena) and the chunks ride along with it.
	blocks    arena.Slab[Block]
	condStmts arena.Slab[cast.CondStmt]

	// edges backs the Succs/Preds slices: every block gets a disjoint
	// zero-length, capacity-2 window (most blocks have at most two edges;
	// one that grows past its window migrates to the heap via ordinary
	// append reallocation). stmtWins backs the blocks' Stmts slices the same
	// way, with capacity-4 windows. Chunks start small and grow with the
	// function (up to edgeChunk and stmtChunk values); like the slabs, they
	// are retained by the Graph's blocks and never recycled.
	edges    arena.Windows[*Block]
	stmtWins arena.Windows[cast.Stmt]
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG of fn. It returns nil for bodyless functions.
// The Graph owns its slab and window chunks for its whole lifetime.
func Build(fn *cast.FuncDef) *Graph {
	if fn.Body == nil {
		return nil
	}
	g := &Graph{Fn: fn, Blocks: make([]*Block, 0, 16)}
	b := &builder{g: g, labels: map[string]*Block{}}
	b.edges.Max = edgeChunk
	b.stmtWins.Max = stmtChunk
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmts(fn.Body.Stmts)
	if b.cur != nil {
		b.link(b.cur, g.Exit)
	}
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.link(pg.from, target)
		} else {
			// Unknown label (parse recovery): fall to exit.
			b.link(pg.from, g.Exit)
		}
	}
	// Exit must be last in Blocks for readable dumps; rebuild IDs stably.
	return g
}

func (b *builder) newBlock() *Block {
	blk := b.blocks.New(Block{ID: len(b.g.Blocks)})
	blk.Succs = b.edges.Take(2)
	blk.Preds = b.edges.Take(2)
	// Most blocks hold at most a handful of leaf statements; the ones that
	// overflow migrate to the heap on the fifth append.
	blk.Stmts = b.stmtWins.Take(4)
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// Chunk caps of the builder's windows, in values.
const (
	stmtChunk = 256
	edgeChunk = 128
)

// cond slab-allocates a condition pseudo-statement at pos with the given
// macro-origin chain.
func (b *builder) cond(x cast.Expr, pos clex.Pos, origin []string) *cast.CondStmt {
	c := b.condStmts.New(cast.CondStmt{X: x})
	c.StartPos = pos
	c.Origin = origin
	return c
}

func (b *builder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a leaf statement to the current block, opening a new one if
// control already left.
func (b *builder) add(s cast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code still gets a block
	}
	if len(b.cur.Stmts) == 0 && b.cur.FromMacro == "" {
		if o := s.MacroOrigin(); len(o) > 0 {
			b.cur.FromMacro = o[0]
		}
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *builder) stmts(list []cast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s cast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *cast.CompoundStmt:
		b.stmts(x.Stmts)
	case *cast.ExprStmt, *cast.DeclStmt, *cast.EmptyStmt:
		b.add(s)
	case *cast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.Exit)
		b.cur = nil
	case *cast.IfStmt:
		b.ifStmt(x)
	case *cast.ForStmt:
		b.forStmt(x)
	case *cast.WhileStmt:
		b.whileStmt(x)
	case *cast.DoWhileStmt:
		b.doWhileStmt(x)
	case *cast.SwitchStmt:
		b.switchStmt(x)
	case *cast.BreakStmt:
		b.add(s)
		if n := len(b.breaks); n > 0 {
			b.link(b.cur, b.breaks[n-1])
		} else {
			b.link(b.cur, b.g.Exit)
		}
		b.cur = nil
	case *cast.ContinueStmt:
		b.add(s)
		if n := len(b.conts); n > 0 {
			b.link(b.cur, b.conts[n-1])
		} else {
			b.link(b.cur, b.g.Exit)
		}
		b.cur = nil
	case *cast.GotoStmt:
		b.add(s)
		if b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: x.Label})
		}
		b.cur = nil
	case *cast.LabelStmt:
		target := b.labelBlock(x.Name)
		if b.cur != nil {
			b.link(b.cur, target)
		}
		b.cur = target
		if x.Stmt != nil {
			b.stmt(x.Stmt)
		}
	case *cast.CaseStmt:
		// Cases outside switch context (shouldn't happen); treat as label.
		b.add(s)
	default:
		b.add(s)
	}
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	blk.Label = name
	blk.IsError = isErrorLabel(name)
	b.labels[name] = blk
	return blk
}

func (b *builder) ifStmt(x *cast.IfStmt) {
	condBlk := b.cur
	if condBlk == nil {
		condBlk = b.newBlock()
		b.cur = condBlk
	}
	// Record the condition as a pseudo-statement so checkers can see null
	// tests and error tests in block order.
	b.add(b.cond(x.Cond, x.Pos(), x.MacroOrigin()))
	condBlk = b.cur

	thenBlk := b.newBlock()
	thenErr, elseErr := classifyErrorBranches(x)
	thenBlk.IsError = thenErr
	b.link(condBlk, thenBlk)
	b.cur = thenBlk
	b.stmt(x.Then)
	thenEnd := b.cur

	var elseEnd *Block
	var elseBlk *Block
	if x.Else != nil {
		elseBlk = b.newBlock()
		elseBlk.IsError = elseErr
		b.link(condBlk, elseBlk)
		b.cur = elseBlk
		b.stmt(x.Else)
		elseEnd = b.cur
	}

	join := b.newBlock()
	if thenEnd != nil {
		b.link(thenEnd, join)
	}
	if x.Else != nil {
		if elseEnd != nil {
			b.link(elseEnd, join)
		}
	} else {
		b.link(condBlk, join)
	}
	b.cur = join
}

func (b *builder) forStmt(x *cast.ForStmt) {
	if x.Init != nil {
		b.stmt(x.Init)
	}
	head := b.newBlock()
	head.LoopHead = true
	if o := x.MacroOrigin(); len(o) > 0 {
		head.FromMacro = o[0]
	}
	b.link(b.cur, head)
	if x.Cond != nil {
		head.Stmts = append(head.Stmts, b.cond(x.Cond, x.Pos(), x.MacroOrigin()))
	}
	after := b.newBlock()
	body := b.newBlock()
	b.link(head, body)
	b.link(head, after) // loop may not execute (or exits)

	b.breaks = append(b.breaks, after)
	b.conts = append(b.conts, head)
	b.cur = body
	b.stmt(x.Body)
	if x.Post != nil {
		post := &cast.ExprStmt{X: x.Post}
		post.StartPos = x.Post.Pos()
		post.Origin = x.MacroOrigin()
		b.add(post)
	}
	if b.cur != nil {
		b.link(b.cur, head) // back edge
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	b.cur = after
}

func (b *builder) whileStmt(x *cast.WhileStmt) {
	head := b.newBlock()
	head.LoopHead = true
	if o := x.MacroOrigin(); len(o) > 0 {
		head.FromMacro = o[0]
	}
	b.link(b.cur, head)
	head.Stmts = append(head.Stmts, b.cond(x.Cond, x.Pos(), x.MacroOrigin()))

	after := b.newBlock()
	body := b.newBlock()
	b.link(head, body)
	b.link(head, after)

	b.breaks = append(b.breaks, after)
	b.conts = append(b.conts, head)
	b.cur = body
	b.stmt(x.Body)
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	b.cur = after
}

func (b *builder) doWhileStmt(x *cast.DoWhileStmt) {
	body := b.newBlock()
	b.link(b.cur, body)
	after := b.newBlock()
	head := b.newBlock()
	head.LoopHead = true

	b.breaks = append(b.breaks, after)
	b.conts = append(b.conts, head)
	b.cur = body
	b.stmt(x.Body)
	if b.cur != nil {
		b.link(b.cur, head)
	}
	head.Stmts = append(head.Stmts, b.cond(x.Cond, x.Pos(), nil))
	b.link(head, body)
	b.link(head, after)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	b.cur = after
}

func (b *builder) switchStmt(x *cast.SwitchStmt) {
	b.add(b.cond(x.Tag, x.Pos(), x.MacroOrigin()))
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, after)

	// Each CaseStmt starts a new block linked from the head; fallthrough is
	// modelled by linking the previous case's end into the next case block.
	body, ok := x.Body.(*cast.CompoundStmt)
	if !ok {
		// Degenerate switch; treat body as one arm.
		arm := b.newBlock()
		b.link(head, arm)
		b.cur = arm
		b.stmt(x.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	} else {
		b.cur = nil
		sawDefault := false
		for _, s := range body.Stmts {
			if cs, isCase := s.(*cast.CaseStmt); isCase {
				arm := b.newBlock()
				if cs.IsDefault {
					sawDefault = true
				}
				b.link(head, arm)
				if b.cur != nil {
					b.link(b.cur, arm) // fallthrough
				}
				b.cur = arm
				continue
			}
			if b.cur == nil {
				b.cur = b.newBlock() // stmts before first case: unreachable
			}
			b.stmt(s)
		}
		if b.cur != nil {
			b.link(b.cur, after)
		}
		if !sawDefault {
			b.link(head, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}
