// The race detector's sync.Pool drops a random share of Puts, so pooled
// buffers are reallocated and no allocation budget holds under -race.
//
//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/corpus"
)

// TestServedHitAllocationBudget pins what one L1 unit-hit analyze request
// allocates in process: the scale-1 corpus posted as refbench's served-mix
// sends it (JSON output, confirmation on, ~190 KB of json.Marshal body),
// through Handler() and an httptest recorder. On such a hit the analysis
// is the small part; reading the body, decoding it, rendering the reports
// and encoding the response are most of it. Through encoding/json a hit
// allocated 2.38 MB; the one-pass reader, the report appender, the direct
// response writer and the pooled handler buffers cut that to 0.59 MB (the
// decoded source strings, the recorder's copy of the response and the
// cache hit itself). The ceiling leaves about 5% headroom over that.
func TestServedHitAllocationBudget(t *testing.T) {
	const ceiling = 618_000
	c := corpus.Generate(corpus.Spec{Seed: 1})
	req := AnalyzeRequest{JSON: true, Confirm: true, Headers: c.Headers}
	for _, f := range c.Files {
		req.Sources = append(req.Sources, SourceFile{Path: f.Path, Content: f.Content})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srv := New(Config{Workers: 1, Cache: cache})
	defer srv.Close()
	h := srv.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	// The first request computes; the second is a hit that warms the
	// process-lifetime pools, and proves later requests are hits.
	post()
	var resp AnalyzeResponse
	if err := json.Unmarshal(post().Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics["cache.unit.hit"] != 1 {
		t.Fatalf("second request was not a unit hit: %v", resp.Metrics)
	}
	const hits = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("an L1-hit request allocated %d bytes (body %d bytes)", got, len(body))
	if got > ceiling {
		t.Errorf("an L1-hit request allocated %d bytes, over the %d ceiling", got, ceiling)
	}
}
