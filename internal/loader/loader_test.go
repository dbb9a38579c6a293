package loader

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cpg"
	"repro/internal/watch"
)

func TestWriteAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sources := []cpg.Source{
		{Path: "drivers/clk/a.c", Content: "int a;\n"},
		{Path: "arch/arm/b.c", Content: "int b;\n"},
	}
	headers := map[string]string{
		"include/linux/of.h": "#define X 1\n",
	}
	if err := WriteTree(dir, sources, headers); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 2 {
		t.Fatalf("sources = %+v", tree.Sources)
	}
	// Sorted by path, relative to the root.
	if tree.Sources[0].Path != "arch/arm/b.c" || tree.Sources[1].Path != "drivers/clk/a.c" {
		t.Errorf("paths = %q, %q", tree.Sources[0].Path, tree.Sources[1].Path)
	}
	if tree.Sources[1].Content != "int a;\n" {
		t.Errorf("content = %q", tree.Sources[1].Content)
	}
	if tree.Headers["include/linux/of.h"] != "#define X 1\n" {
		t.Errorf("headers = %+v", tree.Headers)
	}
}

func TestLoadIgnoresOtherExtensions(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTree(dir, []cpg.Source{{Path: "a.c", Content: "int a;"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(dir, []cpg.Source{{Path: "notes.txt", Content: "hi"}}, nil); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 0 { // "a.c" loaded as source; notes.txt skipped
		// a.c IS a source; adjust expectation
	}
	found := false
	for _, s := range tree.Sources {
		if s.Path == "notes.txt" {
			t.Error("txt loaded")
		}
		if s.Path == "a.c" {
			found = true
		}
	}
	if !found {
		t.Error("a.c missing")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := LoadDirs(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestMultipleRoots(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	if err := WriteTree(d1, []cpg.Source{{Path: "x.c", Content: "int x;"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(d2, []cpg.Source{{Path: "y.c", Content: "int y;"}}, nil); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 2 {
		t.Fatalf("sources = %+v", tree.Sources)
	}
}

// TestReloadMatchesLoadDirs drives Reload the way refcheck -watch does —
// with the paths watch.Diff reports between two polls — through a modified
// source, a modified header, an added file and a removed file, and
// requires each result to equal a full LoadDirs of the same tree while the
// previous tree stays as it was loaded.
func TestReloadMatchesLoadDirs(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTree(dir, []cpg.Source{
		{Path: "drivers/a.c", Content: "#include \"inc/x.h\"\nint a;\n"},
		{Path: "drivers/b.c", Content: "int b;\n"},
		{Path: "lib/c.c", Content: "int c;\n"},
	}, map[string]string{"inc/x.h": "#define X 1\n"}); err != nil {
		t.Fatal(err)
	}
	roots := []string{dir}
	prev, err := LoadDirs(roots...)
	if err != nil {
		t.Fatal(err)
	}
	snap := watch.Scan(roots)
	appendTo := func(rel, text string) {
		f, err := os.OpenFile(filepath.Join(dir, rel), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(text); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	steps := []struct {
		name        string
		incremental bool // served without a full reload
		edit        func()
	}{
		{"modified source", true, func() { appendTo("drivers/a.c", "/* edit */\n") }},
		{"modified header", true, func() { appendTo("inc/x.h", "#define Y 2\n") }},
		{"added file", false, func() {
			if err := os.WriteFile(filepath.Join(dir, "lib/new.c"), []byte("int n;\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"removed file", false, func() {
			if err := os.Remove(filepath.Join(dir, "drivers/b.c")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, st := range steps {
		before := cloneTree(prev)
		st.edit()
		cur := watch.Scan(roots)
		changed := watch.Diff(snap, cur)
		snap = cur
		got, err := Reload(prev, roots, changed)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := LoadDirs(roots...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Reload = %+v, LoadDirs = %+v", st.name, got, want)
		}
		if !reflect.DeepEqual(prev, before) {
			t.Fatalf("%s: Reload mutated the previous tree", st.name)
		}
		// lib/c.c never changes: an incremental reload shares its content
		// with the previous tree instead of reading it again.
		shared := unsafe.StringData(sourceOf(got, "lib/c.c")) == unsafe.StringData(sourceOf(prev, "lib/c.c"))
		if shared != st.incremental {
			t.Fatalf("%s: unchanged file shared with the previous tree = %v, want %v", st.name, shared, st.incremental)
		}
		prev = got
	}
}

// TestReloadRereadsOnlyChangedFiles pins the trigger assumption the watch
// loop documents: a write the poller did not report keeps the content the
// previous tree read, until that file is reported changed.
func TestReloadRereadsOnlyChangedFiles(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTree(dir, []cpg.Source{{Path: "a.c", Content: "int a;\n"}, {Path: "b.c", Content: "int b;\n"}}, nil); err != nil {
		t.Fatal(err)
	}
	prev, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.c", "b.c"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("int z;\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Reload(prev, []string{dir}, []string{filepath.Join(dir, "a.c")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sources[0].Content != "int z;\n" || got.Sources[1].Content != "int b;\n" {
		t.Fatalf("sources = %+v, want a.c re-read and b.c as previously loaded", got.Sources)
	}
}

// TestReloadFallsBackOnSharedNames: a header present under two roots is
// the later root's in LoadDirs, so an edit to either copy reloads the lot.
func TestReloadFallsBackOnSharedNames(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	for i, d := range []string{d1, d2} {
		if err := WriteTree(d, nil, map[string]string{"x.h": fmt.Sprintf("#define X %d\n", i)}); err != nil {
			t.Fatal(err)
		}
	}
	roots := []string{d1, d2}
	prev, err := LoadDirs(roots...)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d1, "x.h"), []byte("#define X 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Reload(prev, roots, []string{filepath.Join(d1, "x.h")})
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadDirs(roots...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Headers["x.h"] != "#define X 1\n" {
		t.Fatalf("Reload = %+v, LoadDirs = %+v", got, want)
	}
}

// TestLoadedContentSurvivesInPlaceEdits: a loaded tree holds each file's
// bytes as they were when read. refcheck -watch keeps a tree across polls
// while the files under it are rewritten in place, so the content must be
// a copy — a string aliasing a mapping of the file would show an insert at
// the top as shifted bytes and fault once the file shrinks below a page.
// Both loaders are covered, at every size from empty to many pages.
func TestLoadedContentSurvivesInPlaceEdits(t *testing.T) {
	files := []struct{ name, content string }{
		{"empty.c", ""},
		{"tiny.c", "int x;\n"},
		{"page.c", strings.Repeat("/* filler line for one page */\n", 140)},
		{"big.c", strings.Repeat("int f(void) { return 0; }\n", 4000)},
		{"big.h", strings.Repeat("#define BIG_HEADER_MACRO 1\n", 400)},
	}
	original := func(content string) string { return content }
	// writeFiles rewrites every file in place with content(original) and
	// returns the paths written.
	writeFiles := func(t *testing.T, dir string, content func(string) string) []string {
		var paths []string
		for _, f := range files {
			path := filepath.Join(dir, f.name)
			if err := os.WriteFile(path, []byte(content(f.content)), 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		return paths
	}
	loads := []struct {
		name string
		load func(t *testing.T, dir string) *Tree
	}{
		{"LoadDirs", func(t *testing.T, dir string) *Tree {
			writeFiles(t, dir, original)
			tree, err := LoadDirs(dir)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}},
		{"Reload", func(t *testing.T, dir string) *Tree {
			writeFiles(t, dir, func(string) string { return "int stale;\n" })
			prev, err := LoadDirs(dir)
			if err != nil {
				t.Fatal(err)
			}
			changed := writeFiles(t, dir, original)
			tree, err := Reload(prev, []string{dir}, changed)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}},
	}
	edits := []struct {
		name string
		edit func(string) string
	}{
		{"shift", func(s string) string { return "/* x */\n" + s }},
		{"shrink", func(string) string { return "int y;\n" }},
	}
	check := func(t *testing.T, tree *Tree, when string) {
		loaded := maps.Clone(tree.Headers)
		for _, s := range tree.Sources {
			loaded[s.Path] = s.Content
		}
		if len(loaded) != len(files) {
			t.Fatalf("%s: loaded %d files, want %d", when, len(loaded), len(files))
		}
		for _, f := range files {
			if got := loaded[f.name]; got != f.content {
				t.Errorf("%s: %s differs from the bytes written (len %d, want %d)", when, f.name, len(got), len(f.content))
			}
		}
	}
	for _, l := range loads {
		for _, e := range edits {
			t.Run(l.name+"/"+e.name, func(t *testing.T) {
				dir := t.TempDir()
				tree := l.load(t, dir)
				check(t, tree, "after load")
				writeFiles(t, dir, e.edit)
				check(t, tree, "after "+e.name)
			})
		}
	}
}

// readFileString must agree byte-for-byte with a plain read at every size
// from empty to many pages.
func TestReadFileStringMatchesPlainRead(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty.c": "",
		"tiny.c":  "int x;\n",
		"page.c":  strings.Repeat("/* filler line for one page */\n", 140),
		"big.c":   strings.Repeat("int f(void) { return 0; }\n", 4000),
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readFileString(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != content {
			t.Errorf("%s: content mismatch (len got=%d want=%d)", name, len(got), len(content))
		}
	}
}

func TestReadFileStringMissing(t *testing.T) {
	if _, err := readFileString(filepath.Join(t.TempDir(), "nope.c")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestLoadDirsUsesMappedReads keeps the name it had when LoadDirs mapped
// files of a page or more; it checks that LoadDirs returns a multi-page .c
// file and a small .h file byte for byte through the single read path.
func TestLoadDirsUsesMappedReads(t *testing.T) {
	dir := t.TempDir()
	src := strings.Repeat("int g(void) { return 1; }\n", 1000)
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.h"), []byte("#define A 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 1 || tree.Sources[0].Content != src {
		t.Fatalf("source content mismatch")
	}
	if tree.Headers["a.h"] != "#define A 1\n" {
		t.Fatalf("header content mismatch")
	}
}

func sourceOf(t *Tree, path string) string {
	for _, s := range t.Sources {
		if s.Path == path {
			return s.Content
		}
	}
	return ""
}

func cloneTree(t *Tree) *Tree {
	return &Tree{Sources: append([]cpg.Source(nil), t.Sources...), Headers: maps.Clone(t.Headers)}
}
