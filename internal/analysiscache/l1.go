package analysiscache

import (
	"sync"
	"sync/atomic"
)

// numShards is the char-bucket fanout of both tiers: entries map to a shard
// by the first hex digit of their key. Keys are sha256 hex, so the spread
// is uniform; a non-hex first byte (impossible for KeyOf output) lands in
// shard 0.
const numShards = 16

func shardOf(key string) int {
	if v, ok := hexVal(key[0]); ok {
		return int(v)
	}
	return 0
}

func hexVal(c byte) (uint8, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// l1Cache is the in-memory value tier: 16 independently locked shards, each
// an LRU list over a map, bounded by bytes. An entry's charge is its encoded
// size — a stable, already-known proxy for the decoded footprint — unless
// its owner re-charges it (see recharge). Entries are content-addressed, so
// they never go stale and nothing expires them: only the byte budget evicts.
type l1Cache struct {
	shardBudget int64
	bytes       atomic.Int64 // total charge across shards, for the gauge
	entries     atomic.Int64
	shards      [numShards]l1Shard
}

type l1Shard struct {
	mu    sync.Mutex
	m     map[string]*l1Entry
	bytes int64
	// LRU list: head is most recently used, tail is the eviction victim.
	head, tail *l1Entry
}

type l1Entry struct {
	key        string
	val        any
	size       int64
	prev, next *l1Entry
}

func newL1Cache(budget int64) *l1Cache {
	b := budget / numShards
	if b < 1 {
		b = 1
	}
	c := &l1Cache{shardBudget: b}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*l1Entry)
	}
	return c
}

// get returns the value for key and marks it most recently used.
func (c *l1Cache) get(key string) (v any, ok bool) {
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[key]
	if e == nil {
		return nil, false
	}
	s.moveFront(e)
	return e.val, true
}

// put inserts (or refreshes) key and evicts LRU entries until the shard is
// back under budget, returning how many were evicted. A value larger than
// the whole shard budget is not cached at all — admitting it would evict
// everything else for a value that can never stay.
func (c *l1Cache) put(key string, val any, size int64) (evicted int) {
	if size > c.shardBudget {
		return 0
	}
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		c.bytes.Add(size - e.size)
		s.bytes += size - e.size
		e.val, e.size = val, size
		s.moveFront(e)
	} else {
		e := &l1Entry{key: key, val: val, size: size}
		s.m[key] = e
		s.pushFront(e)
		s.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
	}
	return c.evictOver(s)
}

// recharge sets the charge of key's entry to size if the entry still holds
// val (compared by identity, so val must be comparable — in practice a
// pointer), then evicts LRU entries until the shard is back under budget,
// returning how many were evicted. An entry that no longer fits the shard
// budget at all leaves, exactly as put would have refused it. A missing or
// replaced entry is left alone: its owner's value is no longer the one the
// tier holds.
func (c *l1Cache) recharge(key string, val any, size int64) (evicted int) {
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[key]
	if e == nil || e.val != val {
		return 0
	}
	if size > c.shardBudget {
		s.remove(e)
		c.bytes.Add(-e.size)
		c.entries.Add(-1)
		return 1
	}
	c.bytes.Add(size - e.size)
	s.bytes += size - e.size
	e.size = size
	return c.evictOver(s)
}

// evictOver evicts the shard's LRU entries until it is back under budget;
// the caller holds s.mu.
func (c *l1Cache) evictOver(s *l1Shard) (evicted int) {
	for s.bytes > c.shardBudget && s.tail != nil {
		victim := s.tail
		s.remove(victim)
		c.bytes.Add(-victim.size)
		c.entries.Add(-1)
		evicted++
	}
	return evicted
}

func (c *l1Cache) stats() (entries, bytes int64) {
	return c.entries.Load(), c.bytes.Load()
}

func (s *l1Shard) pushFront(e *l1Entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *l1Shard) moveFront(e *l1Entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *l1Shard) remove(e *l1Entry) {
	s.unlink(e)
	s.bytes -= e.size
	delete(s.m, e.key)
}

func (s *l1Shard) unlink(e *l1Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
