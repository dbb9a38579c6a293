package cfg

import (
	"runtime"
	"testing"
)

// TestSmallFunctionRightSized measures the heap bytes it takes to build the
// CFG of a three-statement function and enumerate its paths. With chunks
// that grow with the function this measured about 2.7 KB; fixed chunks
// (64 blocks, 256 statements, 128 edges, 1024 path blocks) cost about
// 29 KB. The 4 KB ceiling leaves 50% headroom over the measured value.
func TestSmallFunctionRightSized(t *testing.T) {
	const ceiling = 4096
	fn := buildFn(t, "int f(int x) { a(); if (x) return b(); return 0; }", "f").Fn
	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		Build(fn).Paths(0)
	}
	runtime.ReadMemStats(&after)
	perFn := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes per function", perFn)
	if perFn > ceiling {
		t.Errorf("a three-statement function costs %d bytes to build and walk, over the %d ceiling", perFn, ceiling)
	}
}
