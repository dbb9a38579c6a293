package cpg

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

// TestDemoParseArenaBytes pins the deterministic part of the demo corpus's
// arena.bytes gauge: the slab and window chunks of every file's parse (the
// gauge adds the pooled token buffers, whose count depends on sync.Pool
// reuse). Chunks that grow with their file measured 2,463,808 bytes
// (8,331,264 when every file took fixed 64-value slab chunks, without
// counting its window chunks); the ceiling leaves 5.5% headroom over the
// measured value.
func TestDemoParseArenaBytes(t *testing.T) {
	const ceiling = 2_600_000
	c := corpus.Generate(corpus.Spec{Seed: 1})
	headers := cpp.NewIndexedFiles(c.Headers)
	var st arena.Stats
	for _, f := range c.Files {
		res := cpp.New(headers).Process(f.Path, f.Content)
		cparse.ParseFileArena(f.Path, res.Tokens, &st)
	}
	got := st.Bytes.Load()
	t.Logf("parse arena bytes = %d in %d chunks", got, st.Chunks.Load())
	if got > ceiling {
		t.Errorf("demo corpus parse arena bytes = %d, over the %d ceiling", got, ceiling)
	}
}
