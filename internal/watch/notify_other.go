//go:build !linux

package watch

import (
	"fmt"
	"runtime"
)

// notifier stands in for the Linux inotify notifier; newNotifier always
// fails, so the loop polls.
type notifier struct{}

func newNotifier() (*notifier, error) {
	return nil, fmt.Errorf("file events are not supported on %s", runtime.GOOS)
}

func (*notifier) close() error                    { return nil }
func (*notifier) watched() int                    { return 0 }
func (*notifier) sync([]string) (Snapshot, error) { return nil, nil }
func (*notifier) wait() (batch, error)            { return batch{}, nil }
