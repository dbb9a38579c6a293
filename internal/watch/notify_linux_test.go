//go:build linux

package watch

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// event encodes one inotify event as the kernel queues it: the header, then
// the name NUL-padded to a multiple of 16 bytes.
func event(wd int32, mask uint32, name string) []byte {
	n := 0
	if name != "" {
		n = (len(name)/16 + 1) * 16
	}
	buf := make([]byte, syscall.SizeofInotifyEvent+n)
	binary.NativeEndian.PutUint32(buf[0:], uint32(wd))
	binary.NativeEndian.PutUint32(buf[4:], mask)
	binary.NativeEndian.PutUint32(buf[12:], uint32(n))
	copy(buf[syscall.SizeofInotifyEvent:], name)
	return buf
}

func TestParseEvents(t *testing.T) {
	n := &notifier{dirs: map[int32]string{1: "/t", 2: "/t/sub"}}
	parse := func(events ...[]byte) batch {
		var b batch
		n.parse(slices.Concat(events...), &b)
		return b
	}

	b := parse(
		event(1, syscall.IN_CREATE, "a.c.refbench-tmp"),
		event(1, syscall.IN_CLOSE_WRITE, "a.c.refbench-tmp"),
		event(1, syscall.IN_MOVED_FROM, "a.c.refbench-tmp"),
		event(1, syscall.IN_MOVED_TO, "a.c"),
		event(2, syscall.IN_ATTRIB, "b.h"),
		event(2, syscall.IN_DELETE, "c.c"),
		event(2, syscall.IN_ATTRIB, ""),                     // the directory itself
		event(1, syscall.IN_ATTRIB|syscall.IN_ISDIR, "sub"), // a directory's mode
		event(9, syscall.IN_IGNORED, ""),                    // a watch sync removed
		event(9, syscall.IN_CLOSE_WRITE, "z.c"),
	)
	if b.rescan {
		t.Error("file events asked for a rescan")
	}
	if want := []string{"/t/a.c", "/t/sub/b.h", "/t/sub/c.c"}; !slices.Equal(b.paths, want) {
		t.Errorf("paths = %v, want %v", b.paths, want)
	}
	if len(b.written) != 1 || !b.written["/t/a.c"] {
		t.Errorf("written = %v, want only /t/a.c (moved into place)", b.written)
	}

	for _, c := range []struct {
		name string
		ev   []byte
	}{
		{"queue overflow", event(-1, syscall.IN_Q_OVERFLOW, "")},
		{"directory created", event(1, syscall.IN_CREATE|syscall.IN_ISDIR, "new")},
		{"directory moved in", event(1, syscall.IN_MOVED_TO|syscall.IN_ISDIR, "new")},
		{"directory deleted", event(1, syscall.IN_DELETE|syscall.IN_ISDIR, "sub")},
		{"directory moved out", event(1, syscall.IN_MOVED_FROM|syscall.IN_ISDIR, "sub")},
		{"watched directory deleted", event(2, syscall.IN_DELETE_SELF, "")},
		{"watched directory moved", event(2, syscall.IN_MOVE_SELF, "")},
		{"watch removed", event(2, syscall.IN_IGNORED, "")},
		{"truncated event", event(1, syscall.IN_CLOSE_WRITE, "a.c")[:syscall.SizeofInotifyEvent+2]},
	} {
		if b := parse(event(1, syscall.IN_CLOSE_WRITE, "a.c"), c.ev); !b.rescan {
			t.Errorf("%s: no rescan", c.name)
		}
	}

	n.shared = map[int32]bool{2: true}
	if b := parse(event(2, syscall.IN_CLOSE_WRITE, "b.h")); !b.rescan {
		t.Error("event on a shared watch: no rescan")
	}
}

// inotifyFDs counts this process's open inotify descriptors.
func inotifyFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, e := range ents {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && link == "anon_inode:inotify" {
			n++
		}
	}
	return n
}

// eventually waits up to 10s for cond.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestCancelReleasesNotifier: cancelling a watcher blocked on file events
// closes its inotify descriptor and leaves no goroutine behind.
func TestCancelReleasesNotifier(t *testing.T) {
	requireEvents(t)
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.c"), "int a;")
	fds, goroutines := inotifyFDs(t), runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Watch(ctx, Config{
			Roots: []string{dir},
			Run:   func([]string) error { close(started); return nil },
		})
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no initial run within 10s")
	}
	if got := inotifyFDs(t); got != fds+1 {
		t.Errorf("running watcher holds %d inotify descriptors, want %d", got-fds, 1)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch loop did not stop on cancellation")
	}
	if got := inotifyFDs(t); got != fds {
		t.Errorf("%d inotify descriptors left open after cancellation", got-fds)
	}
	if !eventually(func() bool { return runtime.NumGoroutine() <= goroutines }) {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after cancellation, %d before:\n%s", runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
	}
}
