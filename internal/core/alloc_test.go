// The race detector's sync.Pool drops a random share of Puts, so pooled
// buffers are reallocated and no allocation budget holds under -race.
//
//go:build !race

package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/corpus"
	"repro/internal/cpg"
)

// TestShardRoundsAllocationBudget pins what one process allocates running
// the two rounds a manager worker runs — LocalRound, ExchangeRecords,
// CheckRound, then Encode of the reply — over the seed-1 (scale-1) demo
// corpus on one worker. The collector's cost tracks bytes allocated, and
// four cuts brought this from 25.2 MB to 14.0 MB: pooled TU token lines,
// traces that index the function's event array instead of copying it per
// path, no CFG kept after facts, and table-deduplicated report and facts
// payloads. The ceiling leaves about 5% headroom over the measured value.
func TestShardRoundsAllocationBudget(t *testing.T) {
	const ceiling = 14_700_000
	srcs, headers := demoSet()
	req := Request{Headers: headers, Options: Options{Workers: 1}}
	ctx := context.Background()
	// One warm-up pass fills the process-lifetime pools and intern tables,
	// so the measured pass is what every later shard costs.
	shardRounds(t, ctx, req, srcs)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shardRounds(t, ctx, req, srcs)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("shard rounds allocated %d bytes", got)
	if got > ceiling {
		t.Errorf("shard rounds allocated %d bytes, over the %d ceiling", got, ceiling)
	}
}

func shardRounds(t *testing.T, ctx context.Context, req Request, srcs []cpg.Source) {
	t.Helper()
	art, err := LocalRound(ctx, req, srcs)
	if err != nil {
		t.Fatal(err)
	}
	req.Options.DB = apidb.New()
	x := cpg.ExchangeRecords(req.Options.DB, art.Records())
	res, err := CheckRound(ctx, req, x, art)
	if err != nil {
		t.Fatal(err)
	}
	if cells, facts := res.Encode(); len(cells) == 0 || len(facts) == 0 {
		t.Fatal("empty round-2 reply")
	}
}

// TestWarmEditAllocationBudget pins what one steady comment edit allocates
// through Analyze on a cache handle that has seen the tree before: a
// scale-2 seed-1 tree on one worker, whose earlier edits already reused
// the exchange. Such an edit parses, derives facts for, checks and
// finalizes only the edited file, and stores only that file's entries and
// the unit entry's manifest, so what it allocates beyond that is per-run
// bookkeeping over the unchanged files: their keys and lookups. Finishing
// per file and storing a manifest in place of the whole report list cut it
// from 2.34 MB to 0.82 MB. The ceiling leaves about 5% headroom over the
// measured value.
func TestWarmEditAllocationBudget(t *testing.T) {
	const ceiling = 865_000
	c := corpus.Generate(corpus.Spec{Seed: 1, Scale: 2})
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	edit := func(n int) {
		t.Helper()
		srcs = withEdit(srcs, 0, fmt.Sprintf("edit %d", n))
		if _, err := Analyze(context.Background(), Request{
			Sources: srcs, Headers: c.Headers,
			Options: Options{Workers: 1, Cache: cache},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The cold run and two edits fill the cache and reach the steady state.
	for n := 0; n < 3; n++ {
		edit(n)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	edit(3)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm edit allocated %d bytes", got)
	if got > ceiling {
		t.Errorf("a warm edit allocated %d bytes, over the %d ceiling", got, ceiling)
	}
}
