package analysiscache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestZeroByteEntryIsMiss covers the crash-landing shape a torn write could
// leave behind (an empty file in the right slot): it must read as a miss
// and a later Put+Flush must repair it with a fresh pack.
func TestZeroByteEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	key := KeyOf("zero-byte")
	if err := c.Put(key, (&payload{Name: "ok"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	packs := packFiles(t, dir)
	if len(packs) != 1 {
		t.Fatalf("expected one pack, got %v", packs)
	}
	if err := os.WriteFile(packs[0], nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var v payload
	if v.get(mustOpen(t, dir), key) {
		t.Fatal("zero-byte pack must be a miss")
	}
	c2 := mustOpen(t, dir)
	if err := c2.Put(key, (&payload{Name: "repaired"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !v.get(mustOpen(t, dir), key) || v.Name != "repaired" {
		t.Fatal("Put+Flush must repair a zero-byte pack")
	}
}

// TestConcurrentWritersSameKey hammers one key from many writers while
// readers poll it, with interleaved flushes. A reader sees either a miss or
// one writer's entry in full — never a torn mix of two writers. The handle
// has no memory tier, so every read decodes from the disk tier.
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WithMemory(0))
	key := KeyOf("contended")
	const writers, rounds = 8, 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := payload{Name: fmt.Sprintf("writer-%d", w), Lines: []int{w, w, w}}
			for r := 0; r < rounds; r++ {
				if err := c.Put(key, p.encode()); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if r%10 == 0 {
					if err := c.Flush(); err != nil {
						t.Errorf("Flush: %v", err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	checkHit := func(v payload) {
		t.Helper()
		if len(v.Lines) != 3 || v.Lines[0] != v.Lines[1] || v.Lines[1] != v.Lines[2] ||
			v.Name != fmt.Sprintf("writer-%d", v.Lines[0]) {
			t.Errorf("torn entry observed: %+v", v)
		}
	}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			var v payload
			if v.get(c, key) {
				checkHit(v)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var v payload
	if !v.get(c, key) {
		t.Fatal("expected a hit after all writers finished")
	}
	checkHit(v)
	// A fresh handle must decode the on-disk packs to one coherent entry.
	v = payload{}
	if !v.get(mustOpen(t, dir), key) {
		t.Fatal("expected a durable hit from a fresh handle")
	}
	checkHit(v)
}

// TestUnusableDirDegradesToMisses covers the cache root becoming unusable
// after Open: a flush fails loudly, the dropped batch reads as clean misses,
// and nothing panics or half-persists.
func TestUnusableDirDegradesToMisses(t *testing.T) {
	t.Run("dir-replaced-by-file", func(t *testing.T) {
		// Deterministic even for root, where chmod is not enforced: a
		// regular file where the root directory should be makes every
		// shard MkdirAll and pack write fail.
		root := filepath.Join(t.TempDir(), "cache")
		c := mustOpen(t, root)
		if err := os.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(root, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		key := KeyOf("doomed")
		if err := c.Put(key, (&payload{Name: "doomed"}).encode()); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err == nil {
			t.Fatal("Flush through a non-directory root must error")
		}
		var v payload
		if v.get(c, key) {
			t.Fatal("a dropped batch must not leave a readable entry")
		}
	})

	t.Run("write-permission-revoked", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("chmod does not restrict root; the dir-replaced-by-file variant covers this")
		}
		root := filepath.Join(t.TempDir(), "cache")
		c := mustOpen(t, root)
		stored := KeyOf("kept")
		if err := c.Put(stored, (&payload{Name: "kept"}).encode()); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(root, 0o500); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(root, 0o755)
		// A fresh key must land in a not-yet-created shard, or its flush
		// would bypass the read-only root via the existing shard dir.
		fresh := KeyOf("fresh")
		for i := 0; shardOf(fresh) == shardOf(stored); i++ {
			fresh = KeyOf(fmt.Sprintf("fresh-%d", i))
		}
		if err := c.Put(fresh, (&payload{Name: "fresh"}).encode()); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err == nil {
			t.Fatal("Flush into a read-only root must error")
		}
		var v payload
		if v.get(c, fresh) {
			t.Fatal("entry whose batch was dropped must miss")
		}
		if !v.get(c, stored) || v.Name != "kept" {
			t.Fatal("read-only root must still serve existing entries")
		}
	})
}
