// Package par is the one worker pool of the pipeline: the file-sharded
// front end and reparse (internal/cpg), the per-function checker queue
// (internal/core) and the witness replay batch (internal/refsim) all fan out
// through ForEach.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on up to workers goroutines (0
// means GOMAXPROCS; 1 runs sequentially on the caller's goroutine). Once ctx
// is cancelled no further index is handed out, and ForEach returns only
// after every call it started has returned, so a cancelled caller leaks no
// goroutine and sees no late write. Callers write results into per-index
// slots and merge them in index order, which keeps output independent of
// the worker count.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
