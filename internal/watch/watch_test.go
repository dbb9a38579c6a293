package watch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanFiltersSourceFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.c"), "int a;")
	write(t, filepath.Join(dir, "sub", "b.h"), "#define B")
	write(t, filepath.Join(dir, "notes.txt"), "ignore me")
	write(t, filepath.Join(dir, "sub", "c.o"), "\x7fELF")

	snap := Scan([]string{dir})
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d files, want 2 (.c and .h only): %v", len(snap), snap)
	}
	for _, p := range []string{filepath.Join(dir, "a.c"), filepath.Join(dir, "sub", "b.h")} {
		if _, ok := snap[p]; !ok {
			t.Errorf("missing %s", p)
		}
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.c")
	b := filepath.Join(dir, "b.c")
	write(t, a, "int a;")
	write(t, b, "int b;")
	old := Scan([]string{dir})

	if changed := Diff(old, Scan([]string{dir})); len(changed) != 0 {
		t.Errorf("no-op diff reported changes: %v", changed)
	}

	// Same size, different mtime must still register (mtime is part of the
	// content proxy — an editor save that doesn't change length is an edit).
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(a, future, future); err != nil {
		t.Fatal(err)
	}
	c := filepath.Join(dir, "c.c")
	write(t, c, "int c;")
	if err := os.Remove(b); err != nil {
		t.Fatal(err)
	}

	changed := Diff(old, Scan([]string{dir}))
	sort.Strings(changed)
	want := []string{a, b, c}
	sort.Strings(want)
	if len(changed) != 3 || changed[0] != want[0] || changed[1] != want[1] || changed[2] != want[2] {
		t.Errorf("diff = %v, want modified+removed+added = %v", changed, want)
	}
}

// modes runs f once per wake source: file events (skipped where they are
// unavailable) and the poll fallback.
func modes(t *testing.T, f func(t *testing.T, events bool)) {
	for _, m := range []struct {
		name   string
		events bool
	}{{"events", true}, {"poll", false}} {
		t.Run(m.name, func(t *testing.T) {
			if m.events {
				requireEvents(t)
			}
			f(t, m.events)
		})
	}
}

func requireEvents(t *testing.T) {
	t.Helper()
	n, err := newNotifier()
	if err != nil {
		t.Skipf("file events unavailable: %v", err)
	}
	n.close()
}

// start runs a watcher until the test ends and returns the channel its Run
// calls send the changed paths on, sorted.
func start(t *testing.T, cfg Config, events bool) <-chan []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	runs := make(chan []string, 16)
	done := make(chan error, 1)
	cfg.Run = func(changed []string) error {
		sort.Strings(changed)
		runs <- changed
		return nil
	}
	go func() { done <- newWatcher(cfg, events).run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return runs
}

// nextRun waits for the next Run call.
func nextRun(t *testing.T, runs <-chan []string) []string {
	t.Helper()
	select {
	case changed := <-runs:
		return changed
	case <-time.After(10 * time.Second):
		t.Fatal("no run within 10s")
		return nil
	}
}

func TestWatchLoop(t *testing.T) {
	modes(t, func(t *testing.T, events bool) {
		dir := t.TempDir()
		target := filepath.Join(dir, "a.c")
		write(t, target, "int a;\n")

		var runs [][]string
		w := newWatcher(Config{
			Roots:    []string{dir},
			Interval: 10 * time.Millisecond,
			MaxRuns:  2,
			Run: func(changed []string) error {
				runs = append(runs, changed)
				if len(runs) == 1 {
					// Edit between runs: append without changing line structure.
					f, err := os.OpenFile(target, os.O_APPEND|os.O_WRONLY, 0)
					if err != nil {
						return err
					}
					f.WriteString("/* edited */\n")
					return f.Close()
				}
				return nil
			},
		}, events)
		if err := w.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("runs = %d, want 2", len(runs))
		}
		if events && w.scans != 1 {
			t.Errorf("event watcher walked the tree %d times, want 1 (at start): an edit is applied from its events", w.scans)
		}
		if runs[0] != nil {
			t.Errorf("initial run changed = %v, want nil", runs[0])
		}
		if len(runs[1]) != 1 || runs[1][0] != target {
			t.Errorf("second run changed = %v, want exactly [%s]", runs[1], target)
		}
	})
}

// TestEventsAndPollingAgree drives one scripted edit sequence through both
// wake sources; each must report exactly the paths each step changed. A
// step whose writes are not atomic (a create, then a write) may be seen
// in several runs by either source, each naming only that step's paths.
func TestEventsAndPollingAgree(t *testing.T) {
	modes(t, func(t *testing.T, events bool) {
		dir := t.TempDir()
		a, b, c := filepath.Join(dir, "a.c"), filepath.Join(dir, "b.c"), filepath.Join(dir, "c.c")
		d := filepath.Join(dir, "sub", "d.c")
		write(t, a, "int a;\n")
		write(t, b, "int b;\n")
		appendTo := func(path string) func() error {
			return func() error {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				f.WriteString("/* edit */\n")
				return f.Close()
			}
		}
		steps := []struct {
			name  string
			do    func() error
			want  []string
			split bool
		}{
			{"append in place", appendTo(a), []string{a}, false},
			{"temp write and rename", func() error {
				if err := os.WriteFile(b+".tmp", []byte("int b2;\n"), 0o644); err != nil {
					return err
				}
				return os.Rename(b+".tmp", b)
			}, []string{b}, false},
			{"create", func() error { return os.WriteFile(c, []byte("int c;\n"), 0o644) }, []string{c}, true},
			{"delete", func() error { return os.Remove(a) }, []string{a}, false},
			{"mkdir and a file in it", func() error {
				if err := os.Mkdir(filepath.Dir(d), 0o755); err != nil {
					return err
				}
				return os.WriteFile(d, []byte("int d;\n"), 0o644)
			}, []string{d}, true},
			{"chtimes", func() error {
				at := time.Now().Add(time.Hour)
				return os.Chtimes(b, at, at)
			}, []string{b}, false},
			{"non-source write", func() error { return os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644) }, nil, false},
			// The next run after the .txt write must name c.c alone.
			{"append after the non-source write", appendTo(c), []string{c}, false},
		}

		runs := start(t, Config{Roots: []string{dir}, Interval: 10 * time.Millisecond}, events)
		if got := nextRun(t, runs); got != nil {
			t.Fatalf("initial run changed = %v, want nil", got)
		}
		var prev []string // a split step's paths: a late run may repeat them
		for _, s := range steps {
			if err := s.do(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			seen := map[string]bool{}
			for len(seen) < len(s.want) {
				for _, p := range nextRun(t, runs) {
					switch {
					case slices.Contains(s.want, p):
						seen[p] = true
					case !slices.Contains(prev, p):
						t.Fatalf("%s: run reported %s, want only %v", s.name, p, s.want)
					}
				}
			}
			prev = nil
			if s.split {
				prev = s.want
			}
		}
	})
}

// TestEventsReportSameSizeRewrite closes the polling gap under file events:
// a rewrite that keeps the size, with its old mtime put back, is reported.
func TestEventsReportSameSizeRewrite(t *testing.T) {
	requireEvents(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.c")
	write(t, a, "int a;\n")
	old, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	runs := start(t, Config{Roots: []string{dir}, Interval: 10 * time.Millisecond}, true)
	nextRun(t, runs)
	if err := os.WriteFile(a, []byte("int b;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(a, old.ModTime(), old.ModTime()); err != nil {
		t.Fatal(err)
	}
	if now, err := os.Stat(a); err != nil || now.Size() != old.Size() || !now.ModTime().Equal(old.ModTime()) {
		t.Fatalf("rewrite did not keep size and mtime: %v", err)
	}
	if got := nextRun(t, runs); len(got) != 1 || got[0] != a {
		t.Errorf("run changed = %v, want [%s]", got, a)
	}
}

// TestIdleEventWatcherDoesNotScan: an idle watcher under file events walks
// the tree once, at start, and not again over 20 intervals; the poll
// fallback walks it on every tick.
func TestIdleEventWatcherDoesNotScan(t *testing.T) {
	modes(t, func(t *testing.T, events bool) {
		dir := t.TempDir()
		write(t, filepath.Join(dir, "a.c"), "int a;")
		write(t, filepath.Join(dir, "sub", "b.h"), "#define B")
		const interval = 10 * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runs := 0
		w := newWatcher(Config{
			Roots:    []string{dir},
			Interval: interval,
			Run: func([]string) error {
				runs++
				time.AfterFunc(20*interval, cancel)
				return nil
			},
		}, events)
		if err := w.run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if runs != 1 {
			t.Errorf("idle watcher ran %d times, want 1 (the initial run)", runs)
		}
		switch {
		case events && w.scans != 1:
			t.Errorf("idle event watcher scanned the tree %d times, want 1 (at start)", w.scans)
		case !events && w.scans < 3:
			t.Errorf("polling watcher scanned the tree %d times over 20 intervals, want at least 3", w.scans)
		}
	})
}

// TestFileRootPolls: a root that is a source file cannot be watched through
// its directories, so the loop says so and polls it.
func TestFileRootPolls(t *testing.T) {
	target := filepath.Join(t.TempDir(), "a.c")
	write(t, target, "int a;\n")
	var mode string
	runs := start(t, Config{
		Roots:    []string{target},
		Interval: 10 * time.Millisecond,
		Mode:     func(m string) { mode = m },
	}, true)
	nextRun(t, runs)
	if !strings.HasPrefix(mode, "polling every 10ms (events unavailable: ") {
		t.Errorf("mode = %q, want polling", mode)
	}
	if err := os.WriteFile(target, []byte("int a, b;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := nextRun(t, runs); len(got) != 1 || got[0] != target {
		t.Errorf("run changed = %v, want [%s]", got, target)
	}
}

func TestWatchStopsOnRunError(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.c"), "int a;")
	boom := errors.New("boom")
	err := Watch(context.Background(), Config{
		Roots:    []string{dir},
		Interval: 10 * time.Millisecond,
		Run:      func([]string) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the Run error", err)
	}
}

func TestWatchHonorsContext(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.c"), "int a;")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Watch(ctx, Config{
			Roots:    []string{dir},
			Interval: 10 * time.Millisecond,
			Run:      func([]string) error { return nil },
		})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch loop did not stop on cancellation")
	}
}
