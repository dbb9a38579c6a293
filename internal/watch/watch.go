// Package watch implements the refcheck -watch edit loop: a dependency-free
// mtime/size poller over source directories that triggers re-analysis when a
// .c or .h file appears, changes, or disappears. Polling (rather than
// platform file-event APIs) keeps the loop portable and deterministic to
// test; against the tiered analysis cache a one-file edit costs one file's
// front-end recompute, so even aggressive intervals stay cheap.
//
// Trigger assumption: a file whose (size, mtime) pair is unchanged is taken
// to be unchanged. refcheck -watch re-reads only the files Diff reports
// (loader.Reload), so a write that keeps both — a same-size rewrite within
// the filesystem's timestamp granularity — stays unseen until that file
// changes again.
package watch

import (
	"context"
	"io/fs"
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
	snap := Snapshot{}
	for _, root := range roots {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if d != nil && d.IsDir() {
					return filepath.SkipDir
				}
				return nil
			}
			if d.IsDir() {
				return nil
			}
			if ext := filepath.Ext(path); ext != ".c" && ext != ".h" {
				return nil
			}
			info, ierr := d.Info()
			if ierr != nil {
				return nil
			}
			snap[path] = fileState{size: info.Size(), modTime: info.ModTime()}
			return nil
		})
	}
	return snap
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

// Config configures a watch loop.
type Config struct {
	// Roots are the directories to poll.
	Roots []string
	// Interval is the polling period (default 1s).
	Interval time.Duration
	// MaxRuns stops the loop after this many Run invocations (0 = no
	// limit; the loop runs until ctx is canceled). The initial run counts.
	MaxRuns int
	// Run is invoked for the initial state and then once per detected
	// change, with the paths that changed since the previous run (nil on
	// the initial run). A non-nil error stops the loop.
	Run func(changed []string) error
}

// Watch runs the poll loop: one initial Run, then a Run per change tick,
// until ctx is canceled, MaxRuns is reached, or Run fails. The error is
// ctx.Err() on cancellation, else whatever Run returned.
func Watch(ctx context.Context, cfg Config) error {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	snap := Scan(cfg.Roots)
	runs := 0
	if err := cfg.Run(nil); err != nil {
		return err
	}
	runs++
	if cfg.MaxRuns > 0 && runs >= cfg.MaxRuns {
		return nil
	}
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		cur := Scan(cfg.Roots)
		changed := Diff(snap, cur)
		if len(changed) == 0 {
			continue
		}
		snap = cur
		if err := cfg.Run(changed); err != nil {
			return err
		}
		runs++
		if cfg.MaxRuns > 0 && runs >= cfg.MaxRuns {
			return nil
		}
	}
}
