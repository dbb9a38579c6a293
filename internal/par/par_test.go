package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestForEachCoversEveryIndex: at any worker count every index runs exactly
// once, and workers 1 stays on the caller's goroutine (fn may then touch
// unsynchronized state).
func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		hits := make([]int32, 37)
		ForEach(context.Background(), workers, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	seq := 0
	ForEach(context.Background(), 1, 5, func(i int) {
		if i != seq {
			t.Fatalf("workers=1 ran index %d, want %d", i, seq)
		}
		seq++
	})
	ForEach(context.Background(), 4, 0, func(int) { t.Fatal("n=0 ran a call") })
}

// TestForEachStopsOnCancel: once ctx is cancelled no further index is handed
// out, and every call that did start has returned when ForEach returns.
func TestForEachStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int32
		ForEach(ctx, workers, 1000, func(i int) {
			started.Add(1)
			if i == 10 {
				cancel()
			}
			finished.Add(1)
		})
		cancel()
		if s := started.Load(); s >= 1000 || s < 11 {
			t.Fatalf("workers=%d: %d calls started, want cancellation to stop the feed after index 10", workers, s)
		}
		if started.Load() != finished.Load() {
			t.Fatalf("workers=%d: ForEach returned with %d of %d calls unfinished",
				workers, started.Load()-finished.Load(), started.Load())
		}
	}
}
