package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// The front end keeps each cached file's parse tree and discovery
// observation in its in-memory cache entry and hands the same objects to
// every later run. That is sound only while nothing downstream writes them;
// the tests here pin both halves of that contract.

// demoSet is the seed-1 demo corpus as sources plus headers.
func demoSet() ([]cpg.Source, map[string]string) {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs, c.Headers
}

// withEdit returns a copy of srcs with a comment appended to file i.
func withEdit(srcs []cpg.Source, i int, tag string) []cpg.Source {
	out := append([]cpg.Source(nil), srcs...)
	out[i].Content += "\n/* " + tag + " */\n"
	return out
}

// dump renders v and everything reachable from it — exported and
// unexported fields, through pointers and interfaces — one value per line,
// so two dumps are equal exactly when the structures hold equal data. A
// pointer already on the current path prints as a back reference.
func dump(b *strings.Builder, v reflect.Value, indent string, onPath map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil\n")
			return
		}
		if onPath[v.Pointer()] {
			b.WriteString("<back reference>\n")
			return
		}
		onPath[v.Pointer()] = true
		b.WriteString("&")
		dump(b, v.Elem(), indent, onPath)
		delete(onPath, v.Pointer())
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil\n")
			return
		}
		dump(b, v.Elem(), indent, onPath)
	case reflect.Struct:
		fmt.Fprintf(b, "%s {\n", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s  %s: ", indent, v.Type().Field(i).Name)
			dump(b, v.Field(i), indent+"  ", onPath)
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("nil\n")
			return
		}
		fmt.Fprintf(b, "[%d]\n", v.Len())
		for i := 0; i < v.Len(); i++ {
			fmt.Fprintf(b, "%s  %d: ", indent, i)
			dump(b, v.Index(i), indent+"  ", onPath)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		fmt.Fprintf(b, "map[%d]\n", v.Len())
		for _, k := range keys {
			fmt.Fprintf(b, "%s  %s: ", indent, k.String())
			dump(b, v.MapIndex(k), indent+"  ", onPath)
		}
	case reflect.String:
		fmt.Fprintf(b, "%q\n", v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%v\n", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%d\n", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(b, "%d\n", v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%v\n", v.Float())
	default:
		fmt.Fprintf(b, "<%s>\n", v.Type())
	}
}

func dumpOf(x any) string {
	var b strings.Builder
	dump(&b, reflect.ValueOf(x), "", map[uintptr]bool{})
	return b.String()
}

// firstLineDiff locates the first differing line of two dumps.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q before, %q after", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d lines before, %d after", len(al), len(bl))
}

// TestAnalyzeLeavesInputsUntouched is the immutability guard behind the
// parse memo: every file's AST and discovery observation, as held by the
// cache after two full runs (all nine checkers plus refsim confirmation,
// the second after a one-file edit) have read them, must print exactly as
// a private parse that no analysis has touched.
func TestAnalyzeLeavesInputsUntouched(t *testing.T) {
	ctx := context.Background()
	v1, headers := demoSet()
	v2 := withEdit(v1, 0, "immutability probe")

	// Before: a private, uncached parse of the edited tree.
	fresh := &cpg.Builder{Workers: 2, Headers: newHeaderProvider(headers)}
	before := fresh.Build(v2)
	freshArt := fresh.BuildArtifactContext(ctx, v2, false)

	cache, err := analysiscache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	analyze := func(srcs []cpg.Source) *Run {
		run, err := Analyze(ctx, Request{
			Sources: srcs, Headers: headers,
			Options: Options{Workers: 2, Cache: cache, Confirm: true},
			Trace:   obs.New("immutability"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	run1 := analyze(v1)
	run2 := analyze(v2)
	if got, want := run2.Metric("frontend.parse.reused"), int64(len(v1)-1); got != want {
		t.Fatalf("second run reused %d parses, want %d: the memo is not exercised", got, want)
	}
	// The unedited files' trees are the very objects the first run's
	// checkers walked.
	for i := 1; i < len(run1.Unit.Files); i++ {
		if run1.Unit.Files[i] != run2.Unit.Files[i] {
			t.Fatalf("%s: second run got a different AST object, so the memo is not shared", run1.Unit.Files[i].Name)
		}
	}

	if len(run2.Unit.Files) != len(before.Files) {
		t.Fatalf("%d files analyzed, %d parsed privately", len(run2.Unit.Files), len(before.Files))
	}
	for i, f := range run2.Unit.Files {
		if a, b := dumpOf(before.Files[i]), dumpOf(f); a != b {
			t.Errorf("%s: AST changed by analysis: %s", f.Name, firstLineDiff(a, b))
		}
	}

	// The observations the cache holds, as served to a later build. (A
	// retaining local pass would bypass the memo.)
	after := (&cpg.Builder{Workers: 2, Headers: newHeaderProvider(headers), Cache: cache}).
		BuildArtifactContext(ctx, v2, false)
	wantObs, gotObs := freshArt.Observations(), after.Observations()
	if len(gotObs) != len(wantObs) {
		t.Fatalf("%d observations cached, %d observed privately", len(gotObs), len(wantObs))
	}
	for i := range gotObs {
		if a, b := dumpOf(wantObs[i]), dumpOf(gotObs[i]); a != b {
			t.Errorf("%s: observation changed by analysis: %s", gotObs[i].Path, firstLineDiff(a, b))
		}
	}
}

// TestConcurrentAnalyzeSharesMemo runs two analyses concurrently on one
// cache handle over trees that differ in one file — first on a cold cache,
// where both race to create the shared entries, then on a reopened handle,
// where both race to fill the parse memos of entries decoded from disk —
// and requires each to render exactly as an uncached run of its tree. Run
// it under -race.
func TestConcurrentAnalyzeSharesMemo(t *testing.T) {
	ctx := context.Background()
	base, headers := demoSet()
	render := func(run *Run) []byte {
		return reportBytes(run.Reports)
	}
	dir := t.TempDir()
	for round, open := range []string{"cold", "reopened"} {
		a := withEdit(base, 0, open)
		b := withEdit(a, 1, open)
		trees := [][]cpg.Source{a, b}
		var want [2][]byte
		for i, srcs := range trees {
			run, err := Analyze(ctx, Request{Sources: srcs, Headers: headers, Options: Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = render(run)
		}

		cache, err := analysiscache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got [2][]byte
		var wg sync.WaitGroup
		for i := range trees {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run, err := Analyze(ctx, Request{
					Sources: trees[i], Headers: headers,
					Options: Options{Workers: 2, Cache: cache},
				})
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = render(run)
			}(i)
		}
		wg.Wait()
		cache.Close()
		for i := range trees {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("round %d (%s): concurrent run over tree %d differs from an uncached run", round, open, i)
			}
		}
	}
}

// TestParseReuseCount pins the reuse counter: after a one-file edit of the
// demo tree on a warm handle, every other file's parse is reused and only
// the edited file misses, at any worker count.
func TestParseReuseCount(t *testing.T) {
	v1, headers := demoSet()
	v2 := withEdit(v1, 0, "reuse count")
	for _, workers := range []int{1, 2} {
		cache, err := analysiscache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, srcs := range [][]cpg.Source{v1, v2} {
			run, err := Analyze(context.Background(), Request{
				Sources: srcs, Headers: headers,
				Options: Options{Workers: workers, Cache: cache},
				Trace:   obs.New("reuse-count"),
			})
			if err != nil {
				t.Fatal(err)
			}
			wantReused, wantMiss := int64(0), int64(len(v1))
			if i == 1 {
				wantReused, wantMiss = int64(len(v1)-1), 1
			}
			if reused, miss := run.Metric("frontend.parse.reused"), run.Metric("frontend.cache.miss"); reused != wantReused || miss != wantMiss {
				t.Errorf("workers=%d run %d: %d parses reused, %d misses; want %d, %d",
					workers, i+1, reused, miss, wantReused, wantMiss)
			}
		}
		cache.Close()
	}
}
