package analysiscache

import (
	"fmt"
	"sync"
	"testing"
)

// The refcount/owner model exists for one scenario: a daemon shares one
// warm cache handle across concurrent requests, and request-scoped code
// keeps the CLI habit of calling Close after each Analyze. Before the
// refcount, any such Close was "the" close; now a Close only releases one
// owner, and the handle stays fully usable until the last owner lets go.

func put(t *testing.T, c *Cache, key, val string) {
	t.Helper()
	if err := c.PutValue(key, val, []byte(val)); err != nil {
		t.Fatalf("PutValue(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, c *Cache, key, want string) {
	t.Helper()
	v, ok := c.GetValue(key, func(data []byte) (any, error) { return string(data), nil })
	if !ok || v.(string) != want {
		t.Fatalf("GetValue(%s) = %v, %v; want %q", key, v, ok, want)
	}
}

func TestRetainKeepsHandleOpenAcrossClose(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := KeyOf("lifecycle", "one"), KeyOf("lifecycle", "two")

	// Second owner (a concurrent request) retains before the first closes.
	second := c.Retain()
	put(t, c, k1, "v1")
	if err := c.Close(); err != nil { // first owner's CLI-style release
		t.Fatalf("first Close: %v", err)
	}
	if c.st.closed.Load() {
		t.Fatal("handle closed while a second owner still holds it")
	}

	// The surviving owner must still be able to read the first owner's
	// entries and write new ones.
	mustGet(t, second, k1, "v1")
	put(t, second, k2, "v2")
	mustGet(t, second, k2, "v2")

	if err := second.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	if !c.st.closed.Load() {
		t.Fatal("handle not closed after the last owner released it")
	}

	// A closed handle degrades: reads miss, writes are rejected, and a
	// redundant Close is a no-op — never a panic or a torn tier.
	if _, ok := c.GetValue(k1, func(data []byte) (any, error) { return string(data), nil }); ok {
		t.Error("GetValue on a closed handle returned a hit")
	}
	if err := c.PutValue(k1, "x", []byte("x")); err == nil {
		t.Error("PutValue on a closed handle did not error")
	}
	if err := c.Put(k1, []byte("x")); err == nil {
		t.Error("Put on a closed handle did not error")
	}
	if err := c.Flush(); err != nil {
		t.Errorf("Flush on a closed handle: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("redundant Close: %v", err)
	}

	// The disk tier survived the lifecycle: a fresh handle over the same
	// directory serves both owners' flushed entries.
	reopened, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	mustGet(t, reopened, k1, "v1")
	mustGet(t, reopened, k2, "v2")
}

func TestLifecycleClosePerRequestConcurrent(t *testing.T) {
	// The daemon shape under -race: one long-lived owner, N request
	// goroutines that each Retain, work, and Close. No request's Close may
	// close the handle under the others, and every flushed entry must
	// survive to a reopened handle.
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const requests = 16
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := c.Retain()
			defer h.Close()
			key := KeyOf("lifecycle-conc", fmt.Sprint(i))
			val := fmt.Sprintf("value-%d", i)
			if err := h.PutValue(key, val, []byte(val)); err != nil {
				t.Errorf("request %d: PutValue: %v", i, err)
				return
			}
			mustGet(t, h, key, val)
		}(i)
	}
	wg.Wait()
	if c.st.closed.Load() {
		t.Fatal("request-scoped Closes closed the daemon's handle")
	}
	for i := 0; i < requests; i++ {
		mustGet(t, c, KeyOf("lifecycle-conc", fmt.Sprint(i)), fmt.Sprintf("value-%d", i))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("daemon Close: %v", err)
	}
	if !c.st.closed.Load() {
		t.Fatal("daemon's final Close did not close the handle")
	}
	reopened, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := 0; i < requests; i++ {
		mustGet(t, reopened, KeyOf("lifecycle-conc", fmt.Sprint(i)), fmt.Sprintf("value-%d", i))
	}
}
