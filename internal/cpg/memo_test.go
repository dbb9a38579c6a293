package cpg

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/bincodec"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/obs"
)

// TestParseMemoIsCharged checks that an L1 front-end entry is charged for
// its memoized parse, not only its encoded size: with a memory budget that
// holds every encoded entry but not every entry plus its parse, filling the
// memos must evict, the tier must stay within its budget, and builds on the
// evicting handle must still produce the uncached unit.
func TestParseMemoIsCharged(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	srcs := make([]Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = Source{Path: f.Path, Content: f.Content}
	}
	headers := cpp.NewIndexedFiles(c.Headers)
	want := unitFingerprint((&Builder{Headers: headers}).Build(srcs))

	dir := t.TempDir()
	warm, err := analysiscache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	(&Builder{Headers: headers, Cache: warm}).Build(srcs)
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	// Per L1 shard (the first hex digit of the key), the encoded size of its
	// front-end entries, and that plus their parses' arena bytes.
	probe, err := analysiscache.Open(dir, analysiscache.WithMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	var enc, full [16]int64
	for _, src := range srcs {
		key := frontKey(src.Path, src.Content)
		v, ok := probe.GetValue(key, decodeFrontValue)
		if !ok {
			t.Fatalf("%s: front-end entry not on disk", src.Path)
		}
		ent := v.(*frontEntry)
		var st arena.Stats
		cparse.ParseFileArena(src.Path, ent.Tokens, &st)
		shard := int(key[0] - '0')
		if key[0] >= 'a' {
			shard = int(key[0]-'a') + 10
		}
		enc[shard] += ent.memo.charge
		full[shard] += ent.memo.charge + st.Bytes.Load()
	}
	var perShard, fullMax int64
	for s := range enc {
		perShard = max(perShard, enc[s])
		fullMax = max(fullMax, full[s])
	}
	if fullMax <= perShard {
		t.Fatal("fixture too weak: parses add nothing to the largest shard")
	}
	budget := 16 * perShard

	reg := obs.NewRegistry()
	tight, err := analysiscache.Open(dir, analysiscache.WithMemory(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer tight.Close()
	tight = tight.WithRegistry(reg)
	for run := 1; run <= 2; run++ {
		tr := obs.New("charge")
		u := (&Builder{Headers: headers, Cache: tight, Obs: tr.Root()}).Build(srcs)
		if got := unitFingerprint(u); got != want {
			t.Fatalf("run %d on the evicting handle differs from an uncached build:\n--- want ---\n%s--- got ---\n%s", run, want, got)
		}
		if st := tight.Stats(); st.L1Bytes > budget {
			t.Fatalf("run %d: L1 holds %d bytes, over its %d budget", run, st.L1Bytes, budget)
		}
		if run == 2 {
			// Evicted entries come back from disk and are parsed again.
			if reused := tr.Reg().Counter("frontend.parse.reused"); reused >= int64(len(srcs)) {
				t.Fatalf("run 2 reused all %d parses despite evictions", reused)
			}
		}
	}
	if reg.Counter("cache.l1.evict") == 0 {
		t.Fatalf("charging the parses to a budget that fits only the encoded entries evicted nothing")
	}
}

// TestCachedObservationMatchesFresh is what makes caching the observation
// sound: for every demo-corpus file, the observation a front-end entry
// serves — from disk on a reopened handle, from the L1 (with the parse
// memo), and from disk again on a handle with no memory tier — equals a
// fresh apidb.ObserveFile over the file's own preprocess and parse.
func TestCachedObservationMatchesFresh(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	headers := cpp.NewIndexedFiles(c.Headers)
	srcs := make([]Source, len(c.Files))
	want := map[string]apidb.FileObs{}
	for i, f := range c.Files {
		srcs[i] = Source{Path: f.Path, Content: f.Content}
		res := cpp.New(headers).Process(f.Path, f.Content)
		file, _ := cparse.ParseFile(f.Path, res.Tokens)
		want[f.Path] = apidb.ObserveFile(f.Path, file, res.Macros)
	}

	dir := t.TempDir()
	cold, err := analysiscache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	(&Builder{Headers: headers, Cache: cold}).BuildArtifactContext(context.Background(), srcs, false)
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := analysiscache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	nomem, err := analysiscache.Open(dir, analysiscache.WithMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer nomem.Close()
	for _, leg := range []struct {
		name    string
		cache   *analysiscache.Cache
		counter string // must count every file
	}{
		{"disk-warm", warm, "frontend.cache.hit"},
		{"L1", warm, "frontend.parse.reused"},
		{"no memory tier", nomem, "frontend.cache.hit"},
	} {
		tr := obs.New(leg.name)
		art := (&Builder{Headers: headers, Cache: leg.cache, Obs: tr.Root()}).
			BuildArtifactContext(context.Background(), srcs, false)
		if n := tr.Reg().Counter(leg.counter); n != int64(len(srcs)) {
			t.Fatalf("%s: %s = %d, want %d (every file served from its entry)", leg.name, leg.counter, n, len(srcs))
		}
		if len(art.Files) != len(srcs) {
			t.Fatalf("%s: %d files, want %d", leg.name, len(art.Files), len(srcs))
		}
		for _, af := range art.Files {
			if !reflect.DeepEqual(af.Obs, want[af.Path]) {
				t.Errorf("%s: %s: cached observation differs from a fresh one:\nwant %+v\ngot  %+v",
					leg.name, af.Path, want[af.Path], af.Obs)
			}
		}
	}
}

// TestStaleFrontEntriesAreMisses: a cache written before the front-end
// entry became a tabled payload holds fe-v5 entries. Those keys are never
// read again, and even a payload of that layout under a current key must
// decode as a counted miss and be recomputed, never serve different tokens.
// Each stale entry here is a well-formed fe-v5 entry of an empty file, so a
// decoder that accepted it would drop every function of the corpus.
func TestStaleFrontEntriesAreMisses(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	headers := cpp.NewIndexedFiles(c.Headers)
	srcs := make([]Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = Source{Path: f.Path, Content: f.Content}
	}
	want := unitFingerprint((&Builder{Headers: headers}).Build(srcs))

	stale, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	for _, src := range srcs {
		// fe-v5: a U32 magic, a U32-counted string table, the origin-chain
		// table (one chain, chain 0, empty), then U32 fields: no include
		// dependency, no token, no preprocessor error, and an observation
		// naming only its path.
		w := bincodec.NewWriter(64)
		w.U32('F' | 'E'<<8 | 'C'<<16 | 2<<24)
		w.Strings([]string{src.Path})
		for _, v := range []uint32{1, 0, 0, 0, 0, 0, 0, 0, 0} {
			w.U32(v)
		}
		if err := stale.Put(frontKey(src.Path, src.Content), w.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	stale = stale.WithRegistry(reg)
	for run := 1; run <= 2; run++ {
		tr := obs.New("stale")
		u := (&Builder{Headers: headers, Cache: stale, Obs: tr.Root()}).Build(srcs)
		if got := unitFingerprint(u); got != want {
			t.Fatalf("run %d over stale entries differs from an uncached build:\n--- want ---\n%s--- got ---\n%s", run, want, got)
		}
		// Run 1 reads every stale entry, rejects it and recomputes it; run 2
		// is served from the recomputed entries.
		wantHit, wantMiss := int64(0), int64(len(srcs))
		if run == 2 {
			wantHit, wantMiss = wantMiss, 0
		}
		if hit, miss := tr.Reg().Counter("frontend.cache.hit"), tr.Reg().Counter("frontend.cache.miss"); hit != wantHit || miss != wantMiss {
			t.Errorf("run %d: %d hits, %d misses, want %d, %d", run, hit, miss, wantHit, wantMiss)
		}
	}
	if n := reg.Counter("cache.read.corrupt"); n != int64(len(srcs)) {
		t.Errorf("cache.read.corrupt = %d, want %d (every stale entry read and rejected)", n, len(srcs))
	}
}
