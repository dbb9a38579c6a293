package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/render"
)

// The exchange memo: a cached run whose file records and config match an
// earlier run's reuses that run's exchange instead of replaying every
// observation. The tests here drive edit streams through one cache handle,
// as refcheck -watch and refcheckd do, and hold every state's output to an
// uncached run of the same tree.

// renderAll renders a run as refcheck prints it, text and -json, so
// equality is byte-identity of both user-visible forms.
func renderAll(t *testing.T, run *core.Run) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(renderCLI(run))
	if _, err := render.Output(&b, run.Reports, run.Summary, "", true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// exchangeRun analyzes srcs with the given cache (nil: uncached) and
// knowledge-base extension ("" for none), which is also the run's config
// fingerprint, as refcheck -apidb sets it.
func exchangeRun(t *testing.T, srcs []cpg.Source, headers map[string]string, cache *analysiscache.Cache, ext string) *core.Run {
	t.Helper()
	db := apidb.New()
	fp := ""
	if ext != "" {
		if err := db.LoadExtensions(strings.NewReader(ext)); err != nil {
			t.Fatal(err)
		}
		fp = analysiscache.KeyOf("apidb-ext", ext)
	}
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: srcs, Headers: headers,
		Options: core.Options{Workers: 2, Cache: cache, DB: db, ConfigFP: fp},
		Trace:   obs.New("exchange-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// exchangeOutcome names which exchange counter a run moved: "reused",
// "applied", or "none" (a unit-entry hit runs no exchange). A run that
// moved both, or either twice, is reported as such.
func exchangeOutcome(run *core.Run) string {
	r, a := run.Metric("exchange.reused"), run.Metric("exchange.applied")
	switch {
	case r == 1 && a == 0:
		return "reused"
	case r == 0 && a == 1:
		return "applied"
	case r == 0 && a == 0:
		return "none"
	}
	return fmt.Sprintf("reused %d, applied %d", r, a)
}

func openCache(t *testing.T) *analysiscache.Cache {
	t.Helper()
	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	return cache
}

func sourcesOf(c *corpus.Corpus) []cpg.Source {
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs
}

// lastIndex is the index of the last source (in path order) whose content
// holds sub.
func lastIndex(t *testing.T, srcs []cpg.Source, sub string) int {
	t.Helper()
	at := -1
	for i, s := range srcs {
		if strings.Contains(s.Content, sub) && (at < 0 || s.Path > srcs[at].Path) {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("no source holds %q", sub)
	}
	return at
}

// wrapperAPI is a function returning an of_node_get result: discovery
// registers it as one more refcounting API.
const wrapperAPI = `
struct device_node *memo_probe_node_get(struct device_node *np)
{
	return of_node_get(np);
}
`

// plainStruct holds no counter; countedStruct is the same struct with a
// struct kref member, which discovery registers as refcounted.
const (
	plainStruct   = "struct memo_probe_state { int seen; };\n"
	countedStruct = "struct memo_probe_state { int seen; struct kref ref; };\n"
)

// TestExchangeReappliesOnlyWhatChanged is the exchange memo's soundness
// contract on one cache handle over the seed-1 corpus: a comment edit
// reuses the exchange, and every edit that changes what the exchange reads
// — a discovered API, a struct's members, the knowledge base behind the
// config fingerprint — replays it. After every step the output is the
// uncached output of that tree state.
func TestExchangeReappliesOnlyWhatChanged(t *testing.T) {
	c, base := kernelCorpus()
	cache := openCache(t)
	srcs := append([]cpg.Source(nil), base...)
	withOf := lastIndex(t, srcs, "linux/of.h")
	// The extension declares the wrapper the tree defines, so discovery no
	// longer counts it: the config changes the exchange's result.
	const ext = `{"apis":[{"name":"memo_probe_node_get","op":"inc","class":"embedded","returns_ref":true}]}`

	var prev *core.Run
	step := func(name, ext, want string) *core.Run {
		t.Helper()
		run := exchangeRun(t, srcs, c.Headers, cache, ext)
		if got := exchangeOutcome(run); got != want {
			t.Errorf("%s: exchange %s, want %s", name, got, want)
		}
		if got, cold := renderAll(t, run), renderAll(t, exchangeRun(t, srcs, c.Headers, nil, ext)); got != cold {
			t.Errorf("%s: cached output differs from an uncached run of the same tree", name)
		}
		return run
	}

	prev = step("cold", "", "applied")

	srcs[3].Content += "\n/* comment edit */\n"
	run := step("comment", "", "reused")
	if run.Unit == nil || run.Unit.DB != prev.Unit.DB {
		t.Error("comment: a reused exchange must hand the run the memoized DB")
	}
	prev = run

	srcs[withOf].Content += plainStruct + wrapperAPI
	run = step("wrapper API", "", "applied")
	if run.Summary.DiscoveredAPIs != prev.Summary.DiscoveredAPIs+1 {
		t.Errorf("wrapper API: %d discovered APIs, want %d", run.Summary.DiscoveredAPIs, prev.Summary.DiscoveredAPIs+1)
	}
	prev = run

	srcs[withOf].Content = strings.Replace(srcs[withOf].Content, plainStruct, countedStruct, 1)
	run = step("kref member", "", "applied")
	if run.Summary.DiscoveredStructs != prev.Summary.DiscoveredStructs+1 {
		t.Errorf("kref member: %d discovered structs, want %d", run.Summary.DiscoveredStructs, prev.Summary.DiscoveredStructs+1)
	}

	prev = run
	run = step("-apidb extension", ext, "applied")
	if run.Summary.DiscoveredAPIs != prev.Summary.DiscoveredAPIs-1 {
		t.Errorf("-apidb extension: %d discovered APIs, want %d", run.Summary.DiscoveredAPIs, prev.Summary.DiscoveredAPIs-1)
	}
	// The first config's exchange is still held, keyed apart.
	srcs[3].Content += "\n/* another comment */\n"
	step("comment, first config", "", "reused")
	step("comment, extension config", ext, "reused")
}

// TestWatchMatchesColdAtScale2 drives a seeded edit-loop stream through one
// cache handle over a scale-2 corpus: comment appends to random files,
// every fifth edit undoing the latest one still applied, plus one edit
// that adds an API and, at the end, its undo. After every edit the output
// equals an uncached run of that tree state, and the exchange counters say
// what ran: a tree already analyzed is a unit hit, a comment edit reuses
// the exchange, and only the API edit replays it.
func TestWatchMatchesColdAtScale2(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: 1, Scale: 2})
	srcs := sourcesOf(c)
	cache := openCache(t)
	obsFile := lastIndex(t, srcs, "linux/of.h")

	cold := map[string]string{} // tree state → uncached output
	type applied struct {
		file int
		text string
	}
	var stack []applied
	analyze := func(label, want string) {
		t.Helper()
		run := exchangeRun(t, srcs, c.Headers, cache, "")
		if got := exchangeOutcome(run); got != want {
			t.Errorf("%s: exchange %s, want %s", label, got, want)
		}
		var state strings.Builder
		for _, s := range srcs {
			state.WriteString(s.Content)
		}
		ref, ok := cold[state.String()]
		if !ok {
			ref = renderAll(t, exchangeRun(t, srcs, c.Headers, nil, ""))
			cold[state.String()] = ref
		}
		if renderAll(t, run) != ref {
			t.Errorf("%s: watch output differs from an uncached run of the same tree", label)
		}
	}

	analyze("initial scan", "applied")
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 20; k++ {
		switch {
		case k%5 == 0 && len(stack) > 0:
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			srcs[e.file].Content = strings.TrimSuffix(srcs[e.file].Content, e.text)
			analyze(fmt.Sprintf("edit %d (undo)", k), "none")
		case k == 8:
			srcs[obsFile].Content += wrapperAPI
			analyze(fmt.Sprintf("edit %d (API)", k), "applied")
		default:
			i := rng.Intn(len(srcs))
			for i == obsFile {
				i = rng.Intn(len(srcs))
			}
			text := fmt.Sprintf("\n/* edit %d */\n", k)
			srcs[i].Content += text
			stack = append(stack, applied{i, text})
			analyze(fmt.Sprintf("edit %d (comment)", k), "reused")
		}
	}
	// Undoing the API edit restores the initial scan's records: that
	// exchange is still held.
	srcs[obsFile].Content = strings.TrimSuffix(srcs[obsFile].Content, wrapperAPI)
	analyze("undo API", "reused")
}

// TestSharedExchangeUnderConcurrency is refcheckd's shape: concurrent
// analyses of distinct comment variants on one cache handle all reuse the
// one memoized exchange. Each output equals its uncached run, and the
// shared DB reads the same after them all — nothing writes it.
func TestSharedExchangeUnderConcurrency(t *testing.T) {
	c, base := kernelCorpus()
	cache := openCache(t)
	warm := exchangeRun(t, base, c.Headers, cache, "")
	if got := exchangeOutcome(warm); got != "applied" {
		t.Fatalf("warm-up: exchange %s, want applied", got)
	}
	db := warm.Unit.DB
	snapshot := func() string {
		loops := db.Loops()
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n%v\n", db.APIFingerprint(), db.RefStructs())
		for _, l := range loops {
			fmt.Fprintf(&b, "%+v\n", *l)
		}
		return b.String()
	}
	before := snapshot()

	const n = 4
	variants := make([][]cpg.Source, n)
	want := make([]string, n)
	for i := range variants {
		variants[i] = append([]cpg.Source(nil), base...)
		variants[i][i*7].Content += fmt.Sprintf("\n/* variant %d */\n", i)
		want[i] = renderAll(t, exchangeRun(t, variants[i], c.Headers, nil, ""))
	}
	runs := make([]*core.Run, n)
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := core.Analyze(context.Background(), core.Request{
				Sources: variants[i], Headers: c.Headers,
				Options: core.Options{Workers: 2, Cache: cache},
				Trace:   obs.New("exchange-concurrency-test"),
			})
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = run
		}(i)
	}
	wg.Wait()
	for i, run := range runs {
		if run == nil {
			continue
		}
		if got := exchangeOutcome(run); got != "reused" {
			t.Errorf("variant %d: exchange %s, want reused", i, got)
		}
		if run.Unit == nil || run.Unit.DB != db {
			t.Errorf("variant %d: did not share the memoized DB", i)
		}
		if renderAll(t, run) != want[i] {
			t.Errorf("variant %d: output differs from its uncached run", i)
		}
	}
	if after := snapshot(); after != before {
		t.Errorf("the shared DB changed under concurrent runs:\nbefore %s\nafter  %s", before, after)
	}
}
