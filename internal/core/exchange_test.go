package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/corpus"
	"repro/internal/cpg"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExchangeChargeMatchesHeap holds an exchange memo's memory-tier charge
// to the heap it retains: a fresh DB plus the exchange over a scale-2
// corpus's records and its defined-function index, measured as the
// live-heap growth while the records
// themselves stay alive. Too low a charge lets -cache-mem stop bounding
// what the tier holds; too high evicts other entries for nothing.
func TestExchangeChargeMatchesHeap(t *testing.T) {
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
	req := Request{Sources: srcs, Headers: c.Headers, Options: Options{Workers: 2, Cache: cache}}
	art, err := LocalRound(context.Background(), req, srcs)
	if err != nil {
		t.Fatal(err)
	}
	recs := art.Records()

	before := liveHeap()
	db := apidb.New()
	x := cpg.ExchangeRecords(db, recs)
	x.Decls.Defined()
	retained := float64(liveHeap()) - float64(before)
	charge := float64(exchangeCharge(x, db))
	runtime.KeepAlive(recs)
	runtime.KeepAlive(art)

	t.Logf("charge %.0f B, retained %.0f B", charge, retained)
	if r := charge / retained; r < 0.8 || r > 1.25 {
		t.Errorf("charge %.0f B is %.2f× the %.0f B the exchange retains; want 0.8–1.25×", charge, r, retained)
	}
}
