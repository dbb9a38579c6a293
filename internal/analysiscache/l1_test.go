package analysiscache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// sameShardKeys returns n distinct full-length keys that all land in one L1
// shard, so byte-pressure tests control exactly one budget.
func sameShardKeys(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		k := KeyOf("shard-key", fmt.Sprint(i))
		if shardOf(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestL1EvictionUnderBytePressure fills one shard past its byte budget and
// checks LRU order: the least recently used entries leave first, the
// recently touched survive, and the byte charge tracks what remains.
func TestL1EvictionUnderBytePressure(t *testing.T) {
	// 16 shards share the budget evenly: 1600 total → 100 per shard.
	l1 := newL1Cache(1600)
	keys := sameShardKeys(4)

	// Three 30-byte entries fit in 90/100.
	for _, k := range keys[:3] {
		if ev := l1.put(k, k, 30); ev != 0 {
			t.Fatalf("no eviction expected while under budget, got %d", ev)
		}
	}
	// Touch keys[0] so keys[1] is now the LRU victim.
	if _, ok := l1.get(keys[0]); !ok {
		t.Fatal("expected hit for resident entry")
	}
	// A fourth 30-byte entry pushes the shard to 120 → one eviction.
	if ev := l1.put(keys[3], keys[3], 30); ev != 1 {
		t.Fatalf("expected exactly one eviction, got %d", ev)
	}
	if _, ok := l1.get(keys[1]); ok {
		t.Fatal("LRU entry must have been evicted")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := l1.get(k); !ok {
			t.Fatalf("recently used entry %s… must survive", k[:8])
		}
	}
	if entries, bytes := l1.stats(); entries != 3 || bytes != 90 {
		t.Fatalf("stats after eviction: entries=%d bytes=%d, want 3/90", entries, bytes)
	}

	// An entry larger than the whole shard budget is never admitted (it
	// would evict everything for a value that cannot stay).
	if ev := l1.put(keys[1], keys[1], 101); ev != 0 {
		t.Fatalf("oversized entry must be rejected without evictions, got %d", ev)
	}
	if _, ok := l1.get(keys[1]); ok {
		t.Fatal("oversized entry must not be cached")
	}
}

// TestL1Recharge checks that re-charging an entry moves the shard's byte
// count, evicts LRU entries when the new charge overflows the budget, drops
// an entry that no longer fits at all, and ignores entries whose value was
// replaced.
func TestL1Recharge(t *testing.T) {
	l1 := newL1Cache(1600) // 100 bytes per shard
	keys := sameShardKeys(3)
	vals := []*string{new(string), new(string), new(string)}
	for i, k := range keys {
		l1.put(k, vals[i], 20)
	}
	// keys[0] is the LRU tail; growing keys[2] to 70 puts the shard at 110.
	if ev := l1.recharge(keys[2], vals[2], 70); ev != 1 {
		t.Fatalf("recharge over budget: want 1 eviction, got %d", ev)
	}
	if _, ok := l1.get(keys[0]); ok {
		t.Fatal("LRU entry must have been evicted by the recharge")
	}
	if entries, bytes := l1.stats(); entries != 2 || bytes != 90 {
		t.Fatalf("stats after recharge: entries=%d bytes=%d, want 2/90", entries, bytes)
	}
	// A stale owner (its value was replaced) must not move the charge.
	l1.put(keys[1], new(string), 20)
	if ev := l1.recharge(keys[1], vals[1], 60); ev != 0 {
		t.Fatalf("recharge of a replaced value must be a no-op, got %d evictions", ev)
	}
	if _, bytes := l1.stats(); bytes != 90 {
		t.Fatalf("replaced value's recharge moved the charge to %d", bytes)
	}
	// A charge above the whole shard budget drops the entry itself.
	if ev := l1.recharge(keys[2], vals[2], 101); ev != 1 {
		t.Fatalf("oversized recharge: want the entry itself evicted, got %d", ev)
	}
	if entries, bytes := l1.stats(); entries != 1 || bytes != 20 {
		t.Fatalf("stats after oversized recharge: entries=%d bytes=%d, want 1/20", entries, bytes)
	}
}

// TestPutMemoryStaysInMemory pins the memory-only put: GetValue serves the
// value from L1 under the given charge, nothing reaches disk even after a
// flush, and with the memory tier disabled the put is a no-op.
func TestPutMemoryStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	key := KeyOf("memory-only")
	want := &payload{Name: "m"}
	c.PutMemory(key, want, 1234)
	v, ok := c.GetValue(key, decodePayload)
	if !ok || v.(*payload) != want {
		t.Fatal("GetValue must return the exact value PutMemory stored")
	}
	if st := c.Stats(); st.L1Entries != 1 || st.L1Bytes != 1234 || st.Pending != 0 {
		t.Fatalf("stats after PutMemory = %+v, want one 1234-byte L1 entry and nothing pending", st)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := packFiles(t, dir); len(files) != 0 {
		t.Fatalf("a memory-only entry reached disk: %v", files)
	}
	if _, ok := mustOpen(t, dir).GetValue(key, decodePayload); ok {
		t.Fatal("a fresh handle must miss a memory-only entry")
	}
	off := mustOpen(t, dir, WithMemory(0))
	off.PutMemory(key, want, 1234)
	if _, ok := off.GetValue(key, decodePayload); ok {
		t.Fatal("PutMemory without a memory tier must store nothing")
	}
}

// TestGetValueTiered walks one entry through the tiers: PutValue serves
// from L1, a fresh handle decodes from disk and re-fills its own L1, and
// the counters tell the two paths apart.
func TestGetValueTiered(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := mustOpen(t, dir).WithRegistry(reg)
	key := KeyOf("tiered")
	want := &payload{Name: "v", Lines: []int{7}}
	if err := c.PutValue(key, want, want.encode()); err != nil {
		t.Fatal(err)
	}
	v, ok := c.GetValue(key, decodePayload)
	if !ok || v.(*payload) != want {
		t.Fatal("same-handle GetValue must return the exact L1 value")
	}
	if reg.Counter("cache.l1.hit") != 1 || reg.Counter("cache.read.hit") != 0 {
		t.Fatalf("L1 hit must not touch the disk tier: l1.hit=%d read.hit=%d",
			reg.Counter("cache.l1.hit"), reg.Counter("cache.read.hit"))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	c2 := mustOpen(t, dir).WithRegistry(reg2)
	v, ok = c2.GetValue(key, decodePayload)
	if !ok || v.(*payload).Name != "v" {
		t.Fatal("fresh handle must decode the entry from disk")
	}
	if reg2.Counter("cache.l1.miss") != 1 || reg2.Counter("cache.read.hit") != 1 {
		t.Fatalf("disk path counters wrong: l1.miss=%d read.hit=%d",
			reg2.Counter("cache.l1.miss"), reg2.Counter("cache.read.hit"))
	}
	// The disk hit seeded L1: the next lookup stays in memory.
	if _, ok = c2.GetValue(key, decodePayload); !ok || reg2.Counter("cache.l1.hit") != 1 {
		t.Fatalf("second lookup must hit L1, l1.hit=%d", reg2.Counter("cache.l1.hit"))
	}

	// With the memory tier disabled, GetValue decodes every time.
	reg3 := obs.NewRegistry()
	c3 := mustOpen(t, dir, WithMemory(0)).WithRegistry(reg3)
	if c3.st.l1 != nil {
		t.Fatal("WithMemory(0) must disable L1")
	}
	for i := 0; i < 2; i++ {
		if _, ok := c3.GetValue(key, decodePayload); !ok {
			t.Fatal("L1-disabled GetValue must still serve from disk")
		}
	}
	if reg3.Counter("cache.read.hit") != 2 || reg3.Counter("cache.l1.hit") != 0 {
		t.Fatalf("L1-disabled counters wrong: read.hit=%d l1.hit=%d",
			reg3.Counter("cache.read.hit"), reg3.Counter("cache.l1.hit"))
	}
}

// TestConcurrentSameKeyValueOps hammers a small key set with concurrent
// GetValue/PutValue at 1 and 8 workers (the -race run is the real assert),
// under byte pressure so eviction paths race too.
func TestConcurrentSameKeyValueOps(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, WithMemory(4096))
			keys := make([]string, 8)
			vals := make([]*payload, len(keys))
			for i := range keys {
				keys[i] = KeyOf("conc", fmt.Sprint(i))
				vals[i] = &payload{Name: fmt.Sprintf("v-%d", i), Lines: []int{i, i}}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < 200; r++ {
						k := (w + r) % len(keys)
						if r%3 == 0 {
							if err := c.PutValue(keys[k], vals[k], vals[k].encode()); err != nil {
								t.Errorf("PutValue: %v", err)
								return
							}
						}
						if v, ok := c.GetValue(keys[k], decodePayload); ok {
							if got := v.(*payload).Name; got != vals[k].Name {
								t.Errorf("key %d decoded %q, want %q", k, got, vals[k].Name)
								return
							}
						}
						if r%50 == 0 {
							_ = c.Flush()
						}
					}
				}(w)
			}
			wg.Wait()
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			// Every key must be durable and coherent afterwards: a fresh
			// handle reads it from disk.
			fresh := mustOpen(t, dir)
			for i, k := range keys {
				var v payload
				if !v.get(fresh, k) || v.Name != vals[i].Name {
					t.Fatalf("key %d not durable after the storm", i)
				}
			}
		})
	}
}
