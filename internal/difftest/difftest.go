// Package difftest is the correctness-tooling layer for the checker
// pipeline: a differential/metamorphic harness, native fuzz targets, and the
// ground-truth regression gate.
//
// It provides three oracles the repo's other tests cannot express:
//
//  1. Differential: the same input is analyzed across the full
//     {workers 1, N} × {no cache, cold, L1-warm, disk-warm,
//     one-file-invalidated from disk and from L1, cold and
//     one-file-invalidated with no memory tier} matrix and every
//     configuration must render byte-identically (Matrix).
//  2. Metamorphic: semantics-preserving source transforms (comments,
//     whitespace, reordering, include restructuring, identifier renaming)
//     must leave the report signatures invariant up to relocation, while
//     bug-injecting/-removing transforms must change exactly the predicted
//     signatures (see transform.go).
//  3. Ground truth: per-checker golden reports and precision/recall/F1
//     scores against internal/corpus's planned bugs are committed to the
//     repo and re-derived on every run (see scores.go; rebless with
//     `go test ./internal/difftest -update`).
package difftest

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/obs"
)

// SourceSet is one analyzable input: sources plus resolvable headers.
// Transforms consume and produce SourceSets.
type SourceSet struct {
	Sources []cpg.Source
	Headers map[string]string
}

// Clone deep-copies the set so transforms never alias the original backing
// slices/maps.
func (ss SourceSet) Clone() SourceSet {
	out := SourceSet{
		Sources: append([]cpg.Source(nil), ss.Sources...),
		Headers: make(map[string]string, len(ss.Headers)),
	}
	for k, v := range ss.Headers {
		out.Headers[k] = v
	}
	return out
}

// FromCorpus adapts a generated corpus to a SourceSet.
func FromCorpus(c *corpus.Corpus) SourceSet {
	ss := SourceSet{Headers: map[string]string{}}
	for _, f := range c.Files {
		ss.Sources = append(ss.Sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	for p, s := range c.Headers {
		ss.Headers[p] = s
	}
	return ss
}

// Run analyzes the set once with confirmation on, recording into tr (so
// matrix checks can interrogate cache behavior through run metrics; nil or
// obs.Nop() disables observability and Run.Metric then reads 0 for
// everything). A nil cache disables caching.
func Run(ss SourceSet, workers int, cache *analysiscache.Cache, tr *obs.Trace) *core.Run {
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: ss.Sources,
		Headers: ss.Headers,
		Options: core.Options{Workers: workers, Confirm: true, Cache: cache},
		Trace:   tr,
	})
	if err != nil {
		// Background context and a validated (nil) checker selection: an
		// error here is a harness bug, not an input property.
		panic("difftest: " + err.Error())
	}
	tr.Done()
	return run
}

// RenderRun canonicalizes everything a run reports — rendered diagnostics,
// suggestions, confirmation verdicts, and the full witness event stream — so
// two runs can be compared byte for byte. reflect.DeepEqual is deliberately
// not used: cached reports legitimately drop witness CFG block pointers,
// which no consumer reads.
func RenderRun(run *core.Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", run.Summary)
	for _, r := range run.Reports {
		fmt.Fprintf(&b, "%s | confirmed=%v | suggestion=%q\n", r.String(), r.Confirmed, r.Suggestion)
		for _, ev := range r.Witness {
			fmt.Fprintf(&b, "  ev %v obj=%q api=%q assign=%q esc=%q pos=%s macro=%q",
				ev.Op, ev.Obj, ev.API, ev.AssignTarget, ev.EscapesVia, ev.Pos, ev.FromMacro)
			if ev.Info != nil {
				fmt.Fprintf(&b, " info=%+v", *ev.Info)
			}
			fmt.Fprintf(&b, " nnT=%v nnF=%v\n", ev.NonNullTrue, ev.NonNullFalse)
		}
	}
	return b.String()
}

// matrixWorkers is the parallel worker count the matrix cross-checks against
// the sequential run.
const matrixWorkers = 8

// Matrix runs the pipeline over the set across the full {workers 1, N} ×
// {no cache, cold, L1-warm, disk-warm, one-file-invalidated from disk and
// from L1, cold and one-file-invalidated with no memory tier} matrix,
// verifies every configuration renders byte-identically to the sequential
// uncached baseline (the invalidated runs against an uncached baseline of
// the edited set), and returns the baseline run. The cache states exercise
// every tier of the cache: a second run on the same handle must be served
// out of the in-memory L1 tier, a run on a reopened handle must be served
// from the disk packs into a cold L1, and editing one file must miss the
// unit entry while the untouched files still hit the front-end cache, their
// per-file report entries and whichever facts entries the run consults
// (see editSplit; only the edited file's facts re-derive and its functions
// are re-checked) — and, on a handle whose L1
// is warm, reuse their memoized parses (only the edited file is parsed
// again). A handle with no memory tier (WithMemory(0)) gets a cold fill and
// a one-file edit of its own: the edit still front-end-hits every untouched
// file from disk, but reuses no parse. Because every run carries a trace,
// the matrix doubles as the observability determinism oracle: for a given
// cache state, the span tree and every counter must be independent of the
// worker count. Cache directories are private temp dirs, removed before
// returning.
func Matrix(ss SourceSet) (*core.Run, error) {
	// Every matrix run carries a trace: the cache checks read its metrics
	// and the obs oracle compares its span tree.
	traced := func(ss SourceSet, workers int, cache *analysiscache.Cache) *core.Run {
		return Run(ss, workers, cache, obs.New("difftest"))
	}
	base := traced(ss, 1, nil)
	want := RenderRun(base)

	check := func(name string, run *core.Run) error {
		if got := RenderRun(run); got != want {
			return fmt.Errorf("difftest: %s differs from sequential uncached baseline:\n%s",
				name, firstDiff(want, got))
		}
		return nil
	}

	noCacheN := traced(ss, matrixWorkers, nil)
	if err := check(fmt.Sprintf("workers=%d no-cache", matrixWorkers), noCacheN); err != nil {
		return nil, err
	}
	if err := sameObs("no-cache", base, noCacheN); err != nil {
		return nil, err
	}

	// The invalidation leg edits one source file, which must change the unit
	// key; its runs compare against a fresh uncached baseline of the edited
	// set rather than `want`.
	edited := ss.Clone()
	editedWant := ""
	var wantSplit fileCounts
	if len(edited.Sources) > 0 {
		edited.Sources[0].Content += "\n/* difftest: invalidation probe */\n"
		editedRun := traced(edited, 1, nil)
		editedWant = RenderRun(editedRun)
		wantSplit = editSplit(editedRun.Unit, edited.Sources[0].Path)
	}

	// Both worker counts see every cache state: each order pair runs one
	// state at workers=order[0] and the next at order[1] on its own private
	// directory, so across the two pairs each state executes at both worker
	// counts against identical cache contents — the same-cache-state run
	// pairs the obs oracle compares.
	runs := map[string]*core.Run{}
	for _, order := range [][2]int{{1, matrixWorkers}, {matrixWorkers, 1}} {
		dir, err := os.MkdirTemp("", "difftest-cache-")
		if err != nil {
			return nil, err
		}
		cache, err := analysiscache.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cold := traced(ss, order[0], cache)
		l1warm := traced(ss, order[1], cache)
		if cold.Metric("cache.unit.hit") != 0 {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("difftest: cold run (workers=%d) claims a unit cache hit", order[0])
		}
		if l1warm.Metric("cache.unit.hit") != 1 || l1warm.Metric("cache.l1.hit") == 0 {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("difftest: second run on the same handle (workers=%d) was not served from L1: unit.hit=%d l1.hit=%d",
				order[1], l1warm.Metric("cache.unit.hit"), l1warm.Metric("cache.l1.hit"))
		}

		// A reopened handle starts with an empty L1, so a hit here proves the
		// batched packs round-trip through disk.
		reopened, err := analysiscache.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		diskwarm := traced(ss, order[0], reopened)
		if diskwarm.Metric("cache.unit.hit") != 1 || diskwarm.Metric("cache.l1.hit") != 0 {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("difftest: reopened-handle run (workers=%d) not served from disk: unit.hit=%d l1.hit=%d",
				order[0], diskwarm.Metric("cache.unit.hit"), diskwarm.Metric("cache.l1.hit"))
		}

		var inval *core.Run
		if len(edited.Sources) > 0 {
			invalCache, err := analysiscache.Open(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			inval = traced(edited, order[1], invalCache)
			if inval.Metric("cache.unit.hit") != 0 {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("difftest: run with an edited file (workers=%d) claims a unit cache hit", order[1])
			}
			if wantHits := int64(len(ss.Sources) - 1); inval.Metric("frontend.cache.hit") != wantHits {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("difftest: edited-file run (workers=%d) should front-end-hit the %d untouched files, hit %d",
					order[1], wantHits, inval.Metric("frontend.cache.hit"))
			}
			if err := fileSplit("edited-file", order[1], inval, wantSplit); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		os.RemoveAll(dir)

		// The L1-warm one-file-invalidated state: a handle that has seen one
		// cold run holds every front-end entry in L1 with its parse
		// memoized, so an edit parses only the edited file. (The disk-warm
		// leg above starts from a cold L1, so it reuses no parse.)
		var l1inval *core.Run
		if inval != nil {
			if reused := inval.Metric("frontend.parse.reused"); reused != 0 {
				return nil, fmt.Errorf("difftest: edited-file run on a reopened handle (workers=%d) reused %d parses, want 0",
					order[1], reused)
			}
			l1dir, err := os.MkdirTemp("", "difftest-cache-")
			if err != nil {
				return nil, err
			}
			l1cache, err := analysiscache.Open(l1dir)
			if err != nil {
				os.RemoveAll(l1dir)
				return nil, err
			}
			traced(ss, order[0], l1cache)
			l1inval = traced(edited, order[1], l1cache)
			os.RemoveAll(l1dir)
			wantReused := int64(len(ss.Sources) - 1)
			if reused, miss := l1inval.Metric("frontend.parse.reused"), l1inval.Metric("frontend.cache.miss"); reused != wantReused || miss != 1 {
				return nil, fmt.Errorf("difftest: L1-warm edited-file run (workers=%d) should reuse the %d untouched files' parses and miss 1: reused %d, missed %d",
					order[1], wantReused, reused, miss)
			}
			if err := fileSplit("L1-warm edited-file", order[1], l1inval, wantSplit); err != nil {
				return nil, err
			}
			if got := RenderRun(l1inval); got != editedWant {
				return nil, fmt.Errorf("difftest: workers=%d L1-warm one-file-invalidated differs from uncached baseline of the edited set:\n%s",
					order[1], firstDiff(editedWant, got))
			}
			runs[fmt.Sprintf("l1inval-%d", order[1])] = l1inval
		}

		// The no-memory-tier state: a WithMemory(0) handle decodes every
		// entry from disk on each read, so after a cold fill a one-file edit
		// on the same handle front-end-hits the untouched files but reuses
		// no parse.
		if inval != nil {
			ndir, err := os.MkdirTemp("", "difftest-cache-")
			if err != nil {
				return nil, err
			}
			ncache, err := analysiscache.Open(ndir, analysiscache.WithMemory(0))
			if err != nil {
				os.RemoveAll(ndir)
				return nil, err
			}
			nomem := traced(ss, order[0], ncache)
			nomemInval := traced(edited, order[1], ncache)
			os.RemoveAll(ndir)
			if err := check(fmt.Sprintf("workers=%d no-memory-tier cold", order[0]), nomem); err != nil {
				return nil, err
			}
			wantHits := int64(len(ss.Sources) - 1)
			if hit, reused := nomemInval.Metric("frontend.cache.hit"), nomemInval.Metric("frontend.parse.reused"); hit != wantHits || reused != 0 {
				return nil, fmt.Errorf("difftest: no-memory-tier edited-file run (workers=%d) should front-end-hit the %d untouched files and reuse no parse: hit %d, reused %d",
					order[1], wantHits, hit, reused)
			}
			if err := fileSplit("no-memory-tier edited-file", order[1], nomemInval, wantSplit); err != nil {
				return nil, err
			}
			if got := RenderRun(nomemInval); got != editedWant {
				return nil, fmt.Errorf("difftest: workers=%d no-memory-tier one-file-invalidated differs from uncached baseline of the edited set:\n%s",
					order[1], firstDiff(editedWant, got))
			}
			runs[fmt.Sprintf("nomem-%d", order[0])] = nomem
			runs[fmt.Sprintf("nomeminval-%d", order[1])] = nomemInval
		}

		if err := check(fmt.Sprintf("workers=%d cold-cache", order[0]), cold); err != nil {
			return nil, err
		}
		if err := check(fmt.Sprintf("workers=%d l1-warm", order[1]), l1warm); err != nil {
			return nil, err
		}
		if err := check(fmt.Sprintf("workers=%d disk-warm", order[0]), diskwarm); err != nil {
			return nil, err
		}
		if inval != nil {
			if got := RenderRun(inval); got != editedWant {
				return nil, fmt.Errorf("difftest: workers=%d one-file-invalidated differs from uncached baseline of the edited set:\n%s",
					order[1], firstDiff(editedWant, got))
			}
			runs[fmt.Sprintf("inval-%d", order[1])] = inval
		}
		runs[fmt.Sprintf("cold-%d", order[0])] = cold
		runs[fmt.Sprintf("l1warm-%d", order[1])] = l1warm
		runs[fmt.Sprintf("diskwarm-%d", order[0])] = diskwarm
	}
	for _, state := range []string{"cold", "l1warm", "diskwarm", "inval", "l1inval", "nomem", "nomeminval"} {
		a, b := runs[state+"-1"], runs[fmt.Sprintf("%s-%d", state, matrixWorkers)]
		if a == nil || b == nil {
			continue // inval legs are skipped for empty source sets
		}
		if err := sameObs(state, a, b); err != nil {
			return nil, err
		}
	}
	return base, nil
}

// fileCounts is a one-file edit's per-file cache outcome: hits and misses
// for the facts entries and for the report entries.
type fileCounts struct {
	factsHit, factsMiss, reportsHit, reportsMiss int64
}

// editSplit is the per-file cache outcome a one-file edit must produce. The
// edited file's report entry misses (when it defines functions) and every
// other file's hits. A facts entry is consulted only where its facts will
// be read: the edited file's (it misses), and those of the other files
// that define an input of a unit-scoped checker (they hit).
func editSplit(u *cpg.Unit, edited string) fileCounts {
	inputs := map[string]bool{}
	engine, err := core.NewEngineFor(nil)
	if err != nil {
		panic("difftest: " + err.Error())
	}
	for _, c := range engine.Checkers {
		if uc, ok := c.(core.UnitChecker); ok {
			for _, name := range uc.Inputs(u.DB, u.Decls) {
				if f := u.Decls.Funcs[name]; f.Body {
					inputs[f.File] = true
				}
			}
		}
	}
	var want fileCounts
	for _, f := range facts.NewUnit(u).Files() {
		switch {
		case f.Path == edited:
			want.factsMiss++
			want.reportsMiss++
		case inputs[f.Path]:
			want.factsHit++
			want.reportsHit++
		default:
			want.reportsHit++
		}
	}
	return want
}

// fileSplit checks a one-file-edit run's per-file entries against
// editSplit's outcome: only the edited file's facts are derived and its
// functions checked again.
func fileSplit(state string, workers int, run *core.Run, want fileCounts) error {
	for _, c := range []struct {
		kind      string
		hit, miss int64
	}{{"facts", want.factsHit, want.factsMiss}, {"reports", want.reportsHit, want.reportsMiss}} {
		hit, miss := run.Metric("cache."+c.kind+".hit"), run.Metric("cache."+c.kind+".miss")
		if hit != c.hit || miss != c.miss {
			return fmt.Errorf("difftest: %s run (workers=%d) should miss only the edited file's %s entry: %d hits, %d misses, want %d, %d",
				state, workers, c.kind, hit, miss, c.hit, c.miss)
		}
	}
	return nil
}

// sameObs verifies two same-cache-state runs produced an identical span tree
// and identical counters — the per-worker span/counter merge must hide the
// worker count entirely. Timings (gauges, histograms) are exempt: wall time
// legitimately differs.
func sameObs(state string, a, b *core.Run) error {
	if ta, tb := obs.Tree(a.Trace), obs.Tree(b.Trace); ta != tb {
		return fmt.Errorf("difftest: %s span tree depends on worker count:\n%s", state, firstDiff(ta, tb))
	}
	ca, cb := a.Trace.Reg().Counters(), b.Trace.Reg().Counters()
	for k, v := range ca {
		if cb[k] != v {
			return fmt.Errorf("difftest: %s counter %s depends on worker count: %d vs %d", state, k, v, cb[k])
		}
	}
	for k, v := range cb {
		if _, ok := ca[k]; !ok {
			return fmt.Errorf("difftest: %s counter %s only present in one run (= %d)", state, k, v)
		}
	}
	return nil
}

// firstDiff returns a short context snippet around the first differing line
// of two renders, keeping matrix failures readable.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(renders equal?)"
}

// Sig is a relocation-invariant report signature: everything that identifies
// a finding except source coordinates. Semantics-preserving transforms move
// code around (shifting File/Pos) but must not change the multiset of Sigs.
type Sig struct {
	Pattern   string
	Impact    string
	Function  string
	Object    string
	API       string
	Confirmed bool
}

func (s Sig) String() string {
	return fmt.Sprintf("[%s/%s] %s obj=%q api=%s confirmed=%v",
		s.Pattern, s.Impact, s.Function, s.Object, s.API, s.Confirmed)
}

// SigOf extracts the signature of one report.
func SigOf(r core.Report) Sig {
	return Sig{
		Pattern: string(r.Pattern), Impact: r.Impact.String(),
		Function: r.Function, Object: r.Object, API: r.API,
		Confirmed: r.Confirmed,
	}
}

// SigsOf extracts sorted signatures for a whole report list.
func SigsOf(reports []core.Report) []Sig {
	sigs := make([]Sig, len(reports))
	for i, r := range reports {
		sigs[i] = SigOf(r)
	}
	SortSigs(sigs)
	return sigs
}

// SortSigs orders signatures deterministically.
func SortSigs(sigs []Sig) {
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].String() < sigs[j].String() })
}

// DiffSigs compares two signature multisets, returning the elements present
// only in a and only in b.
func DiffSigs(a, b []Sig) (onlyA, onlyB []Sig) {
	count := map[Sig]int{}
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
	}
	for s, n := range count {
		for ; n > 0; n-- {
			onlyA = append(onlyA, s)
		}
		for ; n < 0; n++ {
			onlyB = append(onlyB, s)
		}
	}
	SortSigs(onlyA)
	SortSigs(onlyB)
	return onlyA, onlyB
}
