//go:build linux

package watch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// eventMask is what a directory's watch reports. IN_MODIFY is left out: a
// write in progress wakes nothing, and the writer's close does.
const eventMask = syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO |
	syscall.IN_CLOSE_WRITE | syscall.IN_ATTRIB | syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF

// notifier is an inotify instance watching every directory a Scan walks.
type notifier struct {
	f    *os.File // the inotify descriptor, read through the runtime poller
	rc   syscall.RawConn
	buf  []byte
	dirs map[int32]string // watch descriptor → directory, as Scan names it
	// shared holds the descriptors of directories reached by more than one
	// path: their events cannot name a file.
	shared map[int32]bool
}

func newNotifier() (*notifier, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("inotify_init1", err)
	}
	// A non-blocking descriptor joins the runtime poller, so a read waits
	// without a thread and closing the file ends it.
	f := os.NewFile(uintptr(fd), "inotify")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &notifier{f: f, rc: rc, buf: make([]byte, 64<<10), dirs: map[int32]string{}}, nil
}

func (n *notifier) close() error { return n.f.Close() }

func (n *notifier) watched() int { return len(n.dirs) }

// sync walks the roots as Scan does, watching each directory before it
// reads the directory's entries, and returns the snapshot. Watches on
// directories the walk no longer reaches are removed. A directory that
// vanishes or cannot be read mid-walk is skipped, as Scan skips it. A root
// that is a source file cannot be watched through a directory walk, so it
// fails sync, as does any other failure to add a watch, such as ENOSPC at
// the watch limit.
func (n *notifier) sync(roots []string) (Snapshot, error) {
	for _, root := range roots {
		if info, err := os.Lstat(root); err == nil && !info.IsDir() && isSource(root) {
			return nil, fmt.Errorf("%s is not a directory", root)
		}
	}
	old := n.dirs
	n.dirs, n.shared = make(map[int32]string, len(old)), nil
	snap, err := scan(roots, func(dir string) error {
		var wd int
		var err error
		if cerr := n.rc.Control(func(fd uintptr) {
			wd, err = syscall.InotifyAddWatch(int(fd), dir, eventMask)
		}); cerr != nil {
			return cerr
		}
		switch {
		case errors.Is(err, syscall.ENOENT), errors.Is(err, syscall.EACCES):
			return nil
		case err != nil:
			return os.NewSyscallError("inotify_add_watch", err)
		}
		w := int32(wd)
		if prev, ok := n.dirs[w]; ok && prev != dir {
			if n.shared == nil {
				n.shared = map[int32]bool{}
			}
			n.shared[w] = true
		}
		n.dirs[w] = dir
		return nil
	})
	for wd := range old {
		if _, ok := n.dirs[wd]; !ok {
			n.rc.Control(func(fd uintptr) { syscall.InotifyRmWatch(int(fd), uint32(wd)) })
		}
	}
	return snap, err
}

// wait blocks until events are queued, then reads every queued event into
// one batch.
func (n *notifier) wait() (batch, error) {
	var b batch
	var rerr error
	got := false
	err := n.rc.Read(func(fd uintptr) bool {
		for {
			k, err := syscall.Read(int(fd), n.buf)
			switch {
			case err == syscall.EINTR:
			case err == syscall.EAGAIN:
				return got // nothing queued yet: wait
			case err != nil:
				rerr = os.NewSyscallError("read inotify", err)
				return true
			case k <= 0:
				rerr = errors.New("read inotify: end of file")
				return true
			default:
				n.parse(n.buf[:k], &b)
				got = true
			}
		}
	})
	if err == nil {
		err = rerr
	}
	return b, err
}

// parse decodes the inotify events in buf into b.
func (n *notifier) parse(buf []byte, b *batch) {
	const header = syscall.SizeofInotifyEvent
	for len(buf) >= header {
		wd := int32(binary.NativeEndian.Uint32(buf[0:]))
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := header + int(binary.NativeEndian.Uint32(buf[12:]))
		if end > len(buf) {
			b.rescan = true
			return
		}
		name := strings.TrimRight(string(buf[header:end]), "\x00")
		buf = buf[end:]

		if mask&syscall.IN_Q_OVERFLOW != 0 {
			b.rescan = true
			continue
		}
		dir, ok := n.dirs[wd]
		if !ok {
			continue // a watch sync removed
		}
		switch {
		case n.shared[wd],
			mask&(syscall.IN_IGNORED|syscall.IN_DELETE_SELF|syscall.IN_MOVE_SELF|syscall.IN_UNMOUNT) != 0,
			mask&syscall.IN_ISDIR != 0 && mask&(syscall.IN_CREATE|syscall.IN_DELETE|syscall.IN_MOVED_FROM|syscall.IN_MOVED_TO) != 0:
			b.rescan = true
		case mask&syscall.IN_ISDIR != 0, name == "", !isSource(name):
			// A directory's attributes, or a file Scan does not record.
		default:
			b.add(filepath.Join(dir, name), mask&(syscall.IN_CLOSE_WRITE|syscall.IN_MOVED_TO) != 0)
		}
	}
}
