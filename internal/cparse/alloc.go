package cparse

import (
	"repro/internal/arena"
	"repro/internal/cast"
)

// astAlloc slab-allocates the AST node kinds that dominate a parse. The
// nodes live exactly as long as the cast.File that references them, so
// chunked bump allocation is the right regime: allocating a node costs a
// pointer bump, the heap sees O(chunks) allocations instead of O(nodes),
// and the chunks are collected together with the File. Each kind's chunks
// start at 8 nodes and double up to 64, so a file that uses a kind a few
// times pays for a few nodes, not 64. Rare node kinds (struct defs,
// typedefs, loops) stay on plain &T{} — slabbing them would add chunk
// overhead without moving the profile.
type astAlloc struct {
	idents    arena.Slab[cast.Ident]
	lits      arena.Slab[cast.Lit]
	calls     arena.Slab[cast.CallExpr]
	binaries  arena.Slab[cast.BinaryExpr]
	unaries   arena.Slab[cast.UnaryExpr]
	members   arena.Slab[cast.MemberExpr]
	parens    arena.Slab[cast.ParenExpr]
	assigns   arena.Slab[cast.AssignExpr]
	indexes   arena.Slab[cast.IndexExpr]
	exprStmts arena.Slab[cast.ExprStmt]
	declStmts arena.Slab[cast.DeclStmt]
	compounds arena.Slab[cast.CompoundStmt]
	ifs       arena.Slab[cast.IfStmt]
	returns   arena.Slab[cast.ReturnStmt]
}

func (a *astAlloc) setStats(st *arena.Stats) {
	a.idents.Stats = st
	a.lits.Stats = st
	a.calls.Stats = st
	a.binaries.Stats = st
	a.unaries.Stats = st
	a.members.Stats = st
	a.parens.Stats = st
	a.assigns.Stats = st
	a.indexes.Stats = st
	a.exprStmts.Stats = st
	a.declStmts.Stats = st
	a.compounds.Stats = st
	a.ifs.Stats = st
	a.returns.Stats = st
}
