// Package watch implements the refcheck -watch edit loop: it triggers
// re-analysis when a .c or .h file under the source directories appears,
// changes, or disappears, and names the files that did.
//
// On Linux, changes are detected from inotify file events (notify_linux.go,
// stdlib syscall only): every directory a Scan walks is watched, an idle
// loop blocks in one read, and an event batch costs one lstat per .c/.h
// file it names, not a walk of the tree. Elsewhere, or when inotify is
// unavailable (no instance, or the watch limit reached), the loop polls:
// every interval it Scans the tree into a Snapshot of (size, mtime) pairs
// and Diffs it against the previous one. Both are one loop with two wake
// sources. Against the tiered analysis cache a one-file edit costs one
// file's front-end recompute.
//
// Trigger assumption, polling only: a file whose (size, mtime) pair is
// unchanged is taken to be unchanged. refcheck -watch re-reads only the
// files the loop reports (loader.Reload), so under polling a write that
// keeps both — a same-size rewrite within the filesystem's timestamp
// granularity — stays unseen until that file changes again. Under file
// events a file closed after writing or moved into place is reported even
// when its pair is unchanged; the front-end cache keys on content, so an
// identical rewrite costs only cache hits. Changes that inotify cannot see,
// such as writes made by another host to a network filesystem, are not
// covered.
//
// Only regular files count: a symbolic link named like a source or header
// is neither snapshotted nor reported, and loader.LoadDirs does not load
// it. Its target may lie outside every root, where no watch and no walk of
// the roots sees it change, so following links would leave the watcher's
// output stale against a cold run.
package watch

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Snapshot is the poll state: for every watched source file, the (size,
// mtime) pair that stands in for its content.
type Snapshot map[string]fileState

type fileState struct {
	size    int64
	modTime time.Time
}

// Scan walks the roots and records every .c/.h file's state. Walk errors on
// individual entries are skipped (a file deleted mid-walk is simply absent
// from the snapshot, which the differ reports as a change on the next tick).
func Scan(roots []string) Snapshot {
	snap, _ := scan(roots, nil)
	return snap
}

// scan is Scan that also calls dir, when non-nil, on every directory before
// it reads that directory's entries. An error from dir stops the walk and
// is returned.
func scan(roots []string, dir func(path string) error) (Snapshot, error) {
	snap := Snapshot{}
	var derr error
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if d != nil && d.IsDir() {
					return filepath.SkipDir
				}
				return nil
			}
			if d.IsDir() {
				if dir != nil {
					if derr = dir(path); derr != nil {
						return filepath.SkipAll
					}
				}
				return nil
			}
			if !isSource(path) || !d.Type().IsRegular() {
				return nil
			}
			info, ierr := d.Info()
			if ierr != nil {
				return nil
			}
			snap[path] = stateOf(info)
			return nil
		})
		if derr != nil {
			return nil, derr
		}
	}
	return snap, nil
}

func isSource(path string) bool {
	ext := filepath.Ext(path)
	return ext == ".c" || ext == ".h"
}

func stateOf(info fs.FileInfo) fileState {
	return fileState{size: info.Size(), modTime: info.ModTime()}
}

// Diff returns the paths that changed between two snapshots — modified,
// added, or removed — in no particular order.
func Diff(old, cur Snapshot) []string {
	var changed []string
	for path, st := range cur {
		if prev, ok := old[path]; !ok || prev != st {
			changed = append(changed, path)
		}
	}
	for path := range old {
		if _, ok := cur[path]; !ok {
			changed = append(changed, path)
		}
	}
	return changed
}

// batch is what the file events drained at one wake name.
type batch struct {
	// rescan says the events cannot be applied path by path: the queue
	// overflowed, a directory appeared, vanished or moved, or a watch was
	// removed or is shared by two paths.
	rescan bool
	// paths are the .c/.h files the events name, in event order, possibly
	// repeated.
	paths []string
	// written holds the paths named by a close after writing or by a move
	// into place: reported even when their (size, mtime) is unchanged.
	written map[string]bool
}

func (b *batch) add(path string, written bool) {
	b.paths = append(b.paths, path)
	if written {
		if b.written == nil {
			b.written = map[string]bool{}
		}
		b.written[path] = true
	}
}

// apply lstats each path b names, updates s in place, and returns the
// paths whose state differs from s's, that appeared or vanished, or that
// were written.
func (s Snapshot) apply(b *batch) []string {
	var changed []string
	seen := make(map[string]bool, len(b.paths))
	for _, path := range b.paths {
		if seen[path] {
			continue
		}
		seen[path] = true
		prev, had := s[path]
		info, err := os.Lstat(path)
		if err != nil || !info.Mode().IsRegular() {
			if had {
				delete(s, path)
				changed = append(changed, path)
			}
			continue
		}
		st := stateOf(info)
		s[path] = st
		if !had || prev != st || b.written[path] {
			changed = append(changed, path)
		}
	}
	return changed
}

// Config configures a watch loop.
type Config struct {
	// Roots are the directories to watch.
	Roots []string
	// Interval is the polling period when file events are unavailable
	// (default 1s).
	Interval time.Duration
	// MaxRuns stops the loop after this many Run invocations (0 = no
	// limit; the loop runs until ctx is canceled). The initial run counts.
	MaxRuns int
	// Run is invoked for the initial state and then once per detected
	// change, with the paths that changed since the previous run (nil on
	// the initial run). A non-nil error stops the loop.
	Run func(changed []string) error
	// Mode, when non-nil, is called before the initial Run with how changes
	// are detected ("file events on 222 directories", "polling every 1s
	// (events unavailable: …)"), and again if file events fail later and
	// the loop falls back to polling.
	Mode func(mode string)
}

// Watch runs the watch loop: one initial Run, then a Run per detected
// change, until ctx is canceled, MaxRuns is reached, or Run fails. The
// error is ctx.Err() on cancellation, else whatever Run returned.
func Watch(ctx context.Context, cfg Config) error {
	return newWatcher(cfg, true).run(ctx)
}

// watcher is the loop's state: the snapshot and the wake source, which is
// the notifier n when file events are in use and the ticker otherwise.
type watcher struct {
	cfg    Config
	events bool // try file events first; false forces polling
	snap   Snapshot
	n      *notifier
	unhook func() bool // detaches the notifier from ctx
	ticker *time.Ticker
	scans  int // full walks of the roots, counted for tests
}

func newWatcher(cfg Config, events bool) *watcher {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &watcher{cfg: cfg, events: events}
}

func (w *watcher) run(ctx context.Context) error {
	defer w.stop()
	w.start(ctx)
	if err := w.cfg.Run(nil); err != nil {
		return err
	}
	for runs := 1; w.cfg.MaxRuns <= 0 || runs < w.cfg.MaxRuns; {
		changed, err := w.next(ctx)
		if err != nil {
			return err
		}
		if len(changed) == 0 {
			continue
		}
		if err := w.cfg.Run(changed); err != nil {
			return err
		}
		runs++
	}
	return nil
}

// start chooses the wake source and takes the initial snapshot. Under file
// events each directory's watch is registered before its entries are read,
// so an edit made from then on, during the initial Run included, queues an
// event.
func (w *watcher) start(ctx context.Context) {
	if !w.events {
		w.poll(nil)
		return
	}
	n, err := newNotifier()
	if err != nil {
		w.poll(err)
		return
	}
	// Closing the notifier unblocks a wait for events.
	w.n, w.unhook = n, context.AfterFunc(ctx, func() { n.close() })
	w.scans++
	if w.snap, err = n.sync(w.cfg.Roots); err != nil {
		w.poll(err)
		return
	}
	w.mode(fmt.Sprintf("file events on %d directories", n.watched()))
}

// poll switches the loop to polling because of why (nil when the loop was
// built to poll) and takes a snapshot.
func (w *watcher) poll(why error) {
	w.closeNotifier()
	w.ticker = time.NewTicker(w.cfg.Interval)
	mode := fmt.Sprintf("polling every %v", w.cfg.Interval)
	if why != nil {
		mode += fmt.Sprintf(" (events unavailable: %v)", why)
	}
	w.mode(mode)
	w.scans++
	w.snap = Scan(w.cfg.Roots)
}

func (w *watcher) mode(mode string) {
	if w.cfg.Mode != nil {
		w.cfg.Mode(mode)
	}
}

func (w *watcher) closeNotifier() {
	if w.n != nil {
		w.unhook()
		w.n.close()
		w.n = nil
	}
}

func (w *watcher) stop() {
	w.closeNotifier()
	if w.ticker != nil {
		w.ticker.Stop()
	}
}

// next waits for one wake and returns the paths that changed, updating the
// snapshot. It may return none: a tick with no change, or events that name
// no source file or no change.
func (w *watcher) next(ctx context.Context) ([]string, error) {
	old := w.snap
	if w.n == nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-w.ticker.C:
		}
		w.scans++
		w.snap = Scan(w.cfg.Roots)
		return Diff(old, w.snap), nil
	}
	b, err := w.n.wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err == nil && !b.rescan {
		return w.snap.apply(&b), nil
	}
	// The batch drained the queue, so the walk sees at least what its events
	// said, and a directory it finds new is watched before it is read.
	if err == nil {
		w.scans++
		w.snap, err = w.n.sync(w.cfg.Roots)
	}
	if err != nil {
		w.poll(err)
	}
	changed := Diff(old, w.snap)
	for path := range b.written {
		if st, ok := w.snap[path]; ok && old[path] == st {
			changed = append(changed, path)
		}
	}
	return changed, nil
}
