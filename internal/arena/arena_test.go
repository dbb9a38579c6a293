package arena

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestArenaReleaseExactlyOnce drives many arenas through concurrent workers
// (run under -race by the tier-1 suite): every arena's hooks run exactly
// once, and the Released counter matches the arena count at any worker
// count.
func TestArenaReleaseExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		st := &Stats{}
		const arenas = 64
		var ran atomic.Int64
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range jobs {
					a := New(st)
					a.OnRelease(func() { ran.Add(1) })
					a.OnRelease(func() { ran.Add(1) })
					a.Release()
					if !a.Released() {
						t.Error("Released() false after Release")
					}
				}
			}()
		}
		for i := 0; i < arenas; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		if got := ran.Load(); got != 2*arenas {
			t.Errorf("workers=%d: %d hook runs, want %d", workers, got, 2*arenas)
		}
		if got := st.Released.Load(); got != arenas {
			t.Errorf("workers=%d: Released=%d, want %d", workers, got, arenas)
		}
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	a := New(nil)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	a.Release()
}

func TestArenaOnReleaseAfterReleasePanics(t *testing.T) {
	a := New(nil)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("OnRelease after Release did not panic")
		}
	}()
	a.OnRelease(func() {})
}

// TestSlabAllocationIsPerChunk is the TestNopZeroAllocation analog for the
// arena fast path: allocating N nodes costs one heap allocation per chunk,
// not per node. Under the growth rule 640 nodes take the chunks 8, 16, 32
// and 64, then nine more of 64: 13 chunks, plus the slab itself.
func TestSlabAllocationIsPerChunk(t *testing.T) {
	type node struct{ a, b, c int }
	const n, wantChunks = 640, 13
	var s *Slab[node]
	allocs := testing.AllocsPerRun(10, func() {
		s = &Slab[node]{}
		for i := 0; i < n; i++ {
			s.New(node{a: i})
		}
	})
	if allocs != wantChunks+1 {
		t.Errorf("slab cost %.0f allocs for %d nodes; want %d (one per chunk, plus the slab)", allocs, n, wantChunks+1)
	}
}

// TestSlabPointerStabilityAndStats pins the chunk sequence of 192 values —
// 8, 16, 32, 64, 64, 64: the first chunk is small, each chunk doubles the
// last up to the cap of 64 — and the exact counters it reports.
func TestSlabPointerStabilityAndStats(t *testing.T) {
	st := &Stats{}
	s := &Slab[int]{Stats: st}
	var ptrs []*int
	var chunks []int
	for i := 0; i < 192; i++ {
		ptrs = append(ptrs, s.New(i))
		if len(s.cur) == 1 {
			chunks = append(chunks, cap(s.cur))
		}
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("slab value %d = %d after later allocations", i, *p)
		}
	}
	if want := []int{8, 16, 32, 64, 64, 64}; !slices.Equal(chunks, want) {
		t.Errorf("chunk sequence %v, want %v", chunks, want)
	}
	if got := st.Chunks.Load(); got != 6 {
		t.Errorf("Chunks=%d, want 6", got)
	}
	if got, want := st.Bytes.Load(), int64(248*unsafe.Sizeof(0)); got != want {
		t.Errorf("Bytes=%d, want %d (248 ints)", got, want)
	}
}

// TestWindowsDisjoint fills every window to capacity and requires each to
// keep its own values and occupy its own memory.
func TestWindowsDisjoint(t *testing.T) {
	w := &Windows[int]{Max: 16}
	var wins [][]int
	for i := 0; i < 40; i++ {
		n := 1 + i%5
		win := w.Take(n)
		if len(win) != 0 || cap(win) != n {
			t.Fatalf("window %d: len %d cap %d, want 0 and %d", i, len(win), cap(win), n)
		}
		for j := 0; j < n; j++ {
			win = append(win, 100*i+j)
		}
		wins = append(wins, win)
	}
	type span struct{ lo, hi uintptr }
	var spans []span
	for i, win := range wins {
		for j, v := range win {
			if v != 100*i+j {
				t.Fatalf("window %d slot %d = %d, want %d", i, j, v, 100*i+j)
			}
		}
		lo := uintptr(unsafe.Pointer(&win[0]))
		spans = append(spans, span{lo, lo + uintptr(len(win))*unsafe.Sizeof(0)})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("windows %d and %d overlap", i, j)
			}
		}
	}
}

// TestWindowsAppendPastCapMigrates appends past a window's capacity and
// requires the window to move to fresh storage with its neighbour intact.
func TestWindowsAppendPastCapMigrates(t *testing.T) {
	w := &Windows[int]{}
	a := w.Take(2)
	b := append(w.Take(2), 7, 8)
	first := unsafe.SliceData(a)
	a = append(a, 1, 2, 3)
	if &a[0] == first {
		t.Fatal("an append past the window's capacity stayed in the chunk")
	}
	if !slices.Equal(a, []int{1, 2, 3}) || !slices.Equal(b, []int{7, 8}) {
		t.Fatalf("after migration a=%v b=%v, want [1 2 3] and [7 8]", a, b)
	}
}

// TestWindowsOversizeRequest: a window larger than the next chunk gets a
// chunk of exactly its size, and the next window starts a new chunk.
func TestWindowsOversizeRequest(t *testing.T) {
	st := &Stats{}
	w := &Windows[int]{Stats: st, Max: 16}
	big := w.Take(100)
	if cap(big) != 100 || cap(w.cur) != 100 {
		t.Fatalf("oversize window cap %d in a chunk of %d, want 100 and 100", cap(big), cap(w.cur))
	}
	if st.Chunks.Load() != 1 || st.Bytes.Load() != int64(100*unsafe.Sizeof(0)) {
		t.Fatalf("Chunks=%d Bytes=%d, want 1 chunk of 100 ints", st.Chunks.Load(), st.Bytes.Load())
	}
	w.Take(1)
	if cap(w.cur) != 16 || st.Chunks.Load() != 2 {
		t.Fatalf("after the oversize chunk: chunk of %d, Chunks=%d; want a new chunk of 16 (the cap), 2", cap(w.cur), st.Chunks.Load())
	}
}

// TestWindowsStatsCountEveryChunk: 30 capacity-4 windows under a cap of 32
// take the chunks 8, 16, 32, 32, 32 (2 + 4 + 8 + 8 + 8 windows), and Stats
// counts each of them.
func TestWindowsStatsCountEveryChunk(t *testing.T) {
	st := &Stats{}
	w := &Windows[int64]{Stats: st, Max: 32}
	var chunks []int
	for i := 0; i < 30; i++ {
		w.Take(4)
		if len(w.cur) == 4 {
			chunks = append(chunks, cap(w.cur))
		}
	}
	if want := []int{8, 16, 32, 32, 32}; !slices.Equal(chunks, want) {
		t.Errorf("chunk sequence %v, want %v", chunks, want)
	}
	if st.Chunks.Load() != 5 || st.Bytes.Load() != 120*8 {
		t.Errorf("Chunks=%d Bytes=%d, want 5 and %d", st.Chunks.Load(), st.Bytes.Load(), 120*8)
	}
}

func TestPoolReuse(t *testing.T) {
	st := &Stats{}
	p := &Pool[byte]{Stats: st}
	b := p.Get(128)
	if cap(b) < 128 {
		t.Fatalf("fresh buffer cap %d < hint", cap(b))
	}
	// Under the race detector sync.Pool intentionally drops items at
	// random, so a single Put/Get round trip is not guaranteed to recycle.
	// Retry until a reuse is observed; each round's recycled buffer must
	// come back empty either way.
	for i := 0; i < 100 && st.Reused.Load() == 0; i++ {
		b = append(b[:0], 1, 2, 3)
		p.Put(b)
		b = p.Get(8)
		if len(b) != 0 {
			t.Fatalf("recycled buffer has len %d", len(b))
		}
	}
	if st.Reused.Load() == 0 {
		t.Error("Reused counter did not advance on recycled Get")
	}
}
