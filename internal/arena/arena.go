// Package arena provides the per-translation-unit allocation substrate for
// the front end: chunked bump allocation for nodes that live exactly as long
// as their owning structure (AST nodes, CFG blocks), window carving for the
// small slices those nodes hold (call arguments, statement lists, CFG
// edges, enumerated paths), and capacity-retaining buffer pooling for
// scratch storage that dies at the end of a TU's front end (the
// preprocessor's expanded token stream).
//
// Two ownership regimes, one package:
//
//   - Slab[T] hands out pointers into chunks and Windows[T] hands out
//     capacity-bounded slices of them. Chunks start small and double up to
//     a cap (see nextChunk), so a chunk's capacity tracks what its file or
//     function actually uses: allocating N values costs O(log N) heap
//     allocations below the cap and O(N/cap) past it, instead of O(N).
//     Chunk memory is never recycled: the values it backs are retained by
//     the Unit, so the chunks simply ride along and are collected with it.
//
//   - Pool[T] recycles whole []T buffers through a sync.Pool. Pool memory is
//     recycled wholesale: the caller must guarantee nothing retains the
//     buffer past Put (see internal/cpg for the token-buffer lifetime
//     argument).
//
// An Arena ties per-TU releases together with exactly-once semantics:
// release hooks (typically Pool.Put calls) run exactly once, and a second
// Release panics — the lifecycle tests run this under -race at several
// worker counts. Building with -tags arenadebug additionally poisons pooled
// buffers on release so reuse-after-release reads trip loudly instead of
// silently aliasing.
//
// Stats is an atomic counter sink shared by every allocator of a build; the
// cpg builder feeds it into the obs registry (arena.bytes, arena.chunks,
// arena.reused, arena.released) so the allocation win is visible in
// -stats-json.
package arena

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Stats aggregates allocator counters. All fields are atomic so one Stats
// can be shared by every worker of a parallel build; totals are
// deterministic at any worker count because the set of allocations is.
type Stats struct {
	// Bytes counts bytes of fresh chunk/buffer capacity allocated.
	Bytes atomic.Int64
	// Chunks counts fresh chunk/buffer allocations.
	Chunks atomic.Int64
	// Reused counts buffers served from a pool instead of allocated.
	Reused atomic.Int64
	// Released counts Arena.Release calls that ran their hooks.
	Released atomic.Int64
}

func (st *Stats) addAlloc(bytes int) {
	if st != nil {
		st.Bytes.Add(int64(bytes))
		st.Chunks.Add(1)
	}
}

// Arena owns the scratch allocations of one translation unit and releases
// them wholesale, exactly once. The zero value is not useful; use New.
type Arena struct {
	stats    *Stats
	released atomic.Bool
	hooks    []func()
}

// New returns an arena reporting into st (which may be nil).
func New(st *Stats) *Arena {
	return &Arena{stats: st}
}

// OnRelease registers f to run when the arena is released. Hooks run in
// registration order. Registering on a released arena panics: the resource
// being registered would leak silently otherwise.
func (a *Arena) OnRelease(f func()) {
	if a.released.Load() {
		panic("arena: OnRelease after Release")
	}
	a.hooks = append(a.hooks, f)
}

// Release runs the release hooks exactly once. A second Release panics —
// double release means two owners both believed they held the arena's
// buffers, which is exactly the aliasing bug the arena exists to prevent.
func (a *Arena) Release() {
	if !a.released.CompareAndSwap(false, true) {
		panic("arena: double Release")
	}
	for _, f := range a.hooks {
		f()
	}
	a.hooks = nil
	if a.stats != nil {
		a.stats.Released.Add(1)
	}
}

// Released reports whether Release has run.
func (a *Arena) Released() bool { return a.released.Load() }

// Slab is a chunked bump allocator for values of type T. New returns
// pointers into chunks that grow by nextChunk up to slabChunk values, so
// the pointer cost of a parse is O(chunks), not O(nodes), and a small file
// or function pays for a small chunk. Pointers stay valid forever — chunks
// are never recycled — and the zero Slab is ready to use. A Slab is
// single-goroutine; share the Stats, not the Slab.
type Slab[T any] struct {
	// Stats, when set, receives the chunk allocation counters.
	Stats *Stats

	cur      []T
	poisoned bool
}

const (
	// firstChunk is the length of an allocator's first chunk.
	firstChunk = 8
	// slabChunk caps a Slab's chunk length, and a Windows' whose Max is
	// unset.
	slabChunk = 64
)

// nextChunk is the one growth rule of every chunked allocator: the chunk
// after one of length prev is twice as long, at least firstChunk and at
// most limit values.
func nextChunk(prev, limit int) int {
	return min(max(2*prev, firstChunk), limit)
}

// New copies v into the slab and returns a stable pointer to the copy.
func (s *Slab[T]) New(v T) *T {
	if debugPoison && s.poisoned {
		panic("arena: Slab.New after release (arenadebug)")
	}
	if len(s.cur) == cap(s.cur) {
		var t T
		n := nextChunk(cap(s.cur), slabChunk)
		s.cur = make([]T, 0, n)
		s.Stats.addAlloc(n * int(unsafe.Sizeof(t)))
	}
	s.cur = append(s.cur, v)
	return &s.cur[len(s.cur)-1]
}

// Poison marks the slab released for the arenadebug build: any later New
// panics. Without the tag it only drops the current chunk reference.
func (s *Slab[T]) Poison() {
	s.poisoned = true
	s.cur = nil
}

// Windows carves small slices with a common owner out of chunks: Take(n)
// returns a zero-length, capacity-n window that no other window shares.
// Appending up to n values fills the reserved slots; one more reallocates
// the window onto the heap via ordinary append without touching its
// neighbours. Chunks grow by nextChunk up to Max values, and a window
// larger than the next chunk gets a chunk of exactly its size. Like Slab
// chunks, Windows chunks are retained by the windows and never recycled;
// the zero Windows is ready to use, and a Windows is single-goroutine.
type Windows[T any] struct {
	// Stats, when set, receives the chunk allocation counters.
	Stats *Stats
	// Max caps the chunk length in values; zero means the Slab cap.
	Max int

	cur []T
}

// Take reserves a zero-length, capacity-n window.
func (w *Windows[T]) Take(n int) []T {
	if cap(w.cur)-len(w.cur) < n {
		limit := w.Max
		if limit <= 0 {
			limit = slabChunk
		}
		var t T
		c := max(nextChunk(cap(w.cur), limit), n)
		w.cur = make([]T, 0, c)
		w.Stats.addAlloc(c * int(unsafe.Sizeof(t)))
	}
	// Advance with a plain length reslice: a three-index reslice here would
	// throw away the chunk's remaining capacity.
	off := len(w.cur)
	w.cur = w.cur[:off+n]
	return w.cur[off : off : off+n]
}

// Pool recycles []T scratch buffers with retained capacity. Get either
// serves a recycled buffer (counted as Reused) or allocates a fresh one
// (counted as Bytes/Chunks). The caller must guarantee nothing retains a
// buffer after Put — under -tags arenadebug, Put poisons the contents so a
// stale alias reads zero values instead of plausible stale data.
type Pool[T any] struct {
	// Stats, when set, receives the buffer allocation counters.
	Stats *Stats

	p sync.Pool
}

// Get returns an empty buffer with at least capHint capacity when freshly
// allocated (recycled buffers keep whatever capacity they grew to).
func (p *Pool[T]) Get(capHint int) []T {
	if v := p.p.Get(); v != nil {
		if p.Stats != nil {
			p.Stats.Reused.Add(1)
		}
		return (*(v.(*[]T)))[:0]
	}
	var t T
	p.Stats.addAlloc(capHint * int(unsafe.Sizeof(t)))
	return make([]T, 0, capHint)
}

// Put recycles buf for a later Get. Put of a nil buffer is a no-op.
func (p *Pool[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	if debugPoison {
		clear(buf[:cap(buf)])
	}
	buf = buf[:0]
	p.p.Put(&buf)
}
