package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/loader"
)

// TestSymlinkedSourcesMatchCold holds the watch loop and the loader to one
// rule for symbolic links named like sources: both skip them. Every run
// re-reads what the loop reported (loader.Reload, as refcheck -watch does)
// and must load exactly the tree a cold loader.LoadDirs loads, through an
// edit to a link's target outside the root (which no watch of the root
// sees), a regular file replaced by a link, and a link replaced by a
// regular file.
func TestSymlinkedSourcesMatchCold(t *testing.T) {
	modes(t, func(t *testing.T, events bool) {
		root, outside := t.TempDir(), t.TempDir()
		a, b, link := filepath.Join(root, "a.c"), filepath.Join(root, "b.c"), filepath.Join(root, "link.c")
		target := filepath.Join(outside, "target.c")
		write(t, a, "int a;\n")
		write(t, b, "int b;\n")
		write(t, target, "int target;\n")
		if err := os.Symlink(target, link); err != nil {
			t.Skipf("symbolic links unavailable: %v", err)
		}
		appendTo := func(path, text string) {
			t.Helper()
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(text)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// replace moves a new entry made by mk into place over path.
		replace := func(path string, mk func(tmp string) error) {
			t.Helper()
			tmp := filepath.Join(root, "tmp.txt")
			if err := mk(tmp); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Fatal(err)
			}
		}

		roots := []string{root}
		var tree *loader.Tree
		runs := make(chan error, 16)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- newWatcher(Config{Roots: roots, Interval: 10 * time.Millisecond, Run: func(changed []string) error {
				var err error
				if tree, err = loader.Reload(tree, roots, changed); err != nil {
					return err
				}
				cold, err := loader.LoadDirs(roots...)
				if err == nil && !reflect.DeepEqual(tree, cold) {
					err = fmt.Errorf("watch loaded %+v, a cold load %+v", tree.Sources, cold.Sources)
				}
				runs <- err
				return nil
			}}, events).run(ctx)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		next := func(step string) {
			t.Helper()
			select {
			case err := <-runs:
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: no run within 10s", step)
			}
		}

		next("initial run")
		// The target's edit starts no run; the next edit to a source does,
		// and its run must not hold the link's old content.
		appendTo(target, "/* target edit */\n")
		appendTo(a, "/* edit */\n")
		next("edit a link's target, then a source")
		replace(b, func(tmp string) error { return os.Symlink(target, tmp) })
		next("replace a source with a link")
		replace(link, func(tmp string) error { return os.WriteFile(tmp, []byte("int link;\n"), 0o644) })
		next("replace a link with a source")
	})
}
