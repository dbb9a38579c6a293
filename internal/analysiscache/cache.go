// Package analysiscache is the tiered incremental analysis cache: a sharded
// in-memory L1 of decoded values in front of an on-disk L2 of batched,
// content-hash-named pack files.
//
// Entries are keyed by content hash: the caller derives a key from everything
// that can influence the cached value (source bytes, the transitive include
// closure, the checker-config fingerprint, a format version tag), so a key
// either resolves to a value computed from identical inputs or does not
// resolve at all. There is no invalidation protocol — stale inputs simply
// hash to a different key, and orphaned entries are harmless dead bytes.
//
// The tiers:
//
//   - L1 holds already-decoded values (any), sharded into 16 char buckets by
//     the first hex digit of the key, each bucket an LRU list with a byte
//     budget (charged at the encoded size, a stable proxy for the decoded
//     footprint, unless the owner re-charges the entry with Recharge; a
//     PutMemory value, which has no encoding and never reaches disk, is
//     charged what its owner says it holds). There is no expiry: entries
//     are content-addressed, so they never go stale. A warm same-process
//     re-run skips open, read, and codec decode entirely. Values stored in
//     L1 are shared between every future getter, so callers must treat
//     them as immutable.
//   - L2 is the disk tier. Writes are batched: Put and PutValue only append
//     to a per-shard pending buffer; a shard is flushed — one pack file
//     holding every pending entry, named by the content hash of the pack
//     bytes — when its buffer crosses a size threshold, when it has been
//     dirty longer than the flush interval, or explicitly via Flush/Close.
//     Batching collapses the ~3 entry kinds per unit (front-end, facts,
//     reports) into one file write per shard instead of one per entry.
//
// Because a pack's name commits to its content hash, a torn or bit-rotted
// pack is detected by hashing the whole file on load; any mismatch discards
// the entire pack as corrupt. That is the integrity contract that lets the
// writer skip per-entry fsync/rename dances: a torn batch write degrades to
// clean misses for every entry in the batch, never to a wrong answer.
//
// Entry payloads are opaque byte slices: each caller owns its encoding
// (hand-rolled binary codecs built on internal/bincodec — see internal/cpg,
// internal/facts, internal/core). The cache only moves bytes; the decode
// callback passed to GetValue — the one read path — interprets them, and
// any error it returns is treated as corruption. With the memory tier
// disabled (WithMemory(0)) GetValue decodes from disk on every call.
// Directories written by earlier formats (two-hex-char shard dirs of .gob
// or .bin files) are simply never consulted, so a cache root surviving a
// format change degrades to clean misses.
//
// The cache is defensive by construction: any read error, decode error,
// truncated pack, or corrupt payload is reported as a miss, and the caller
// falls back to full re-analysis. A broken cache can cost time, never
// correctness.
package analysiscache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// Defaults for Open. WithMemory(0) disables L1 entirely.
const (
	DefaultMemory     = 64 << 20
	defaultFlushBytes = 8 << 20
)

// flushInterval is how long a shard may sit dirty before the next Put to it
// flushes inline. There is no timer goroutine: a process that stops writing
// must call Flush (or Close) to make its last batch durable.
const flushInterval = 30 * time.Second

// config collects the Open options.
type config struct {
	mem        int64
	flushBytes int64
}

// Option configures Open.
type Option func(*config)

// WithMemory sets the L1 byte budget (split evenly across the 16 shards).
// Zero (or negative) disables the in-memory tier: GetValue then decodes from
// disk on every call and PutValue only queues the encoded bytes.
func WithMemory(bytes int64) Option { return func(c *config) { c.mem = bytes } }

// WithFlushThreshold sets the per-shard pending-byte level that triggers an
// inline flush on Put.
func WithFlushThreshold(bytes int64) Option {
	return func(c *config) { c.flushBytes = bytes }
}

// Cache is the tiered cache handle, safe for concurrent use by multiple
// goroutines and (for the disk tier) by multiple processes sharing the
// directory: keys are content hashes, so concurrent writers of one key
// write identical bytes, and pack files are named by their own content
// hash, so concurrent flushes of identical batches converge on one file.
type Cache struct {
	dir string
	reg *obs.Registry
	st  *state
}

// state is the tier state shared by pointer across WithRegistry views.
type state struct {
	l1     *l1Cache // nil when the memory tier is disabled
	l2     *l2Tier
	flight flightGroup

	// refs counts the handle's owners (see Retain/Close). Open starts at 1;
	// the transition to 0 performs the final flush and latches closed.
	refs   atomic.Int64
	closed atomic.Bool
}

// Open prepares dir as a cache root, creating it if needed.
func Open(dir string, opts ...Option) (*Cache, error) {
	cfg := config{
		mem:        DefaultMemory,
		flushBytes: defaultFlushBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysiscache: %w", err)
	}
	st := &state{l2: newL2Tier(dir, cfg.flushBytes)}
	st.refs.Store(1)
	if cfg.mem > 0 {
		st.l1 = newL1Cache(cfg.mem)
	}
	return &Cache{dir: dir, st: st}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// WithRegistry returns a view of the cache that counts every tier event
// into reg (cache.read.*, cache.write*, cache.l1.*, cache.l2.batch.*,
// cache.singleflight.*). The receiver is not mutated and all views share
// the tier state, so one cache can serve traced and untraced runs
// concurrently.
func (c *Cache) WithRegistry(reg *obs.Registry) *Cache {
	return &Cache{dir: c.dir, reg: reg, st: c.st}
}

// GetValue reads the decoded value for key through the tiers: L1 first,
// then the disk tier via decode, inserting a disk hit into L1 so the next
// same-process lookup skips the decode. The returned value is shared with
// every other getter of the key — callers must treat it (and everything
// reachable from it) as immutable, and decode must build it in fresh
// storage, never in pooled buffers.
func (c *Cache) GetValue(key string, decode func(data []byte) (any, error)) (any, bool) {
	if len(key) < 2 || c.st.closed.Load() {
		c.reg.Add("cache.read.miss", 1)
		return nil, false
	}
	l1 := c.st.l1
	if l1 != nil {
		if v, ok := l1.get(key); ok {
			c.reg.Add("cache.l1.hit", 1)
			return v, true
		}
		c.reg.Add("cache.l1.miss", 1)
	}
	data, corrupt, ok := c.st.l2.lookup(key)
	if corrupt > 0 {
		c.reg.Add("cache.read.corrupt", int64(corrupt))
	}
	if !ok {
		c.reg.Add("cache.read.miss", 1)
		return nil, false
	}
	v, err := decode(data)
	if err != nil {
		c.reg.Add("cache.read.corrupt", 1)
		return nil, false
	}
	c.reg.Add("cache.read.hit", 1)
	if l1 != nil {
		if evicted := l1.put(key, v, int64(len(data))); evicted > 0 {
			c.reg.Add("cache.l1.evict", int64(evicted))
		}
		c.reg.SetGauge("cache.l1.bytes", float64(l1.bytes.Load()))
	}
	return v, true
}

// Put queues the encoded payload for key in the disk tier's pending batch.
// The bytes reach disk at the next flush (threshold, interval, Flush, or
// Close); until then same-process reads are served from the pending buffer.
// The data slice is retained until flushed and must not be mutated after
// the call. An error means the entry was accepted but an inline flush it
// triggered failed — the batch is dropped and its entries become misses.
func (c *Cache) Put(key string, data []byte) error {
	if len(key) < 2 {
		c.reg.Add("cache.write.error", 1)
		return fmt.Errorf("analysiscache: short key %q", key)
	}
	if c.st.closed.Load() {
		c.reg.Add("cache.write.error", 1)
		return fmt.Errorf("analysiscache: write to closed handle")
	}
	c.reg.Add("cache.write", 1)
	return c.maybeFlush(c.st.l2.put(key, data))
}

// PutValue stores the decoded value in L1 and queues its encoding for the
// disk tier. The value is shared with every future GetValue of the key and
// must be immutable; encoded is retained until flushed.
func (c *Cache) PutValue(key string, val any, encoded []byte) error {
	if len(key) < 2 {
		c.reg.Add("cache.write.error", 1)
		return fmt.Errorf("analysiscache: short key %q", key)
	}
	if c.st.closed.Load() {
		c.reg.Add("cache.write.error", 1)
		return fmt.Errorf("analysiscache: write to closed handle")
	}
	if l1 := c.st.l1; l1 != nil {
		if evicted := l1.put(key, val, int64(len(encoded))); evicted > 0 {
			c.reg.Add("cache.l1.evict", int64(evicted))
		}
		c.reg.SetGauge("cache.l1.bytes", float64(l1.bytes.Load()))
	}
	c.reg.Add("cache.write", 1)
	return c.maybeFlush(c.st.l2.put(key, encoded))
}

// PutMemory stores val in the memory tier only, charged size bytes: for a
// value that is cheap to rebuild but has no encoding worth writing to disk.
// GetValue serves it like any L1 value; the disk tier never holds the key,
// so once evicted (or in another process) it is a miss. The value is shared
// with every future GetValue of the key and must be immutable. A no-op when
// the memory tier is disabled or the handle is closed.
func (c *Cache) PutMemory(key string, val any, size int64) {
	l1 := c.st.l1
	if l1 == nil || len(key) < 2 || c.st.closed.Load() {
		return
	}
	if evicted := l1.put(key, val, size); evicted > 0 {
		c.reg.Add("cache.l1.evict", int64(evicted))
	}
	c.reg.SetGauge("cache.l1.bytes", float64(l1.bytes.Load()))
}

// Recharge sets the memory-tier charge of key's entry to size, provided the
// entry still holds val (by identity; val must be comparable, e.g. a
// pointer). It is for values that grow after insertion — a value that
// memoizes derived state should be charged for it, so the WithMemory budget
// keeps bounding what the tier really holds. Evictions it causes are
// counted as cache.l1.evict. A no-op when the entry is gone or replaced, or
// when the memory tier is disabled.
func (c *Cache) Recharge(key string, val any, size int64) {
	l1 := c.st.l1
	if l1 == nil {
		return
	}
	if evicted := l1.recharge(key, val, size); evicted > 0 {
		c.reg.Add("cache.l1.evict", int64(evicted))
	}
	c.reg.SetGauge("cache.l1.bytes", float64(l1.bytes.Load()))
}

// maybeFlush flushes one shard when put reported its threshold or interval
// crossed, charging the flush counters to this view's registry.
func (c *Cache) maybeFlush(sh *l2Shard) error {
	if sh == nil {
		return nil
	}
	return c.chargeFlush(c.st.l2.flushShard(sh))
}

// chargeFlush translates one shard flush result into counters.
func (c *Cache) chargeFlush(res flushResult) error {
	if res.packs > 0 {
		c.reg.Add("cache.l2.batch.flushes", int64(res.packs))
		c.reg.Add("cache.l2.batch.entries", int64(res.entries))
	}
	if res.dropped > 0 {
		c.reg.Add("cache.write.error", int64(res.dropped))
	}
	return res.err
}

// Flush writes every shard's pending batch to disk. Analyze calls it at the
// end of its cache-store phase so a run's entries are durable (and visible
// to other processes) without waiting for thresholds; CLI tools call Close.
// The first error is returned; failed batches are dropped, so a flush error
// costs future runs recomputes, never correctness. Flushing a closed handle
// is a no-op.
func (c *Cache) Flush() error {
	if c.st.closed.Load() {
		return nil
	}
	return c.flushAll()
}

func (c *Cache) flushAll() error {
	var first error
	for i := range c.st.l2.shards {
		if err := c.chargeFlush(c.st.l2.flushShard(&c.st.l2.shards[i])); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Retain adds an owner to the shared cache handle and returns c for
// chaining. Every Retain must be balanced by one Close; the handle only
// closes for real when the last owner releases it.
//
// This is the lifecycle model a long-lived server needs: the daemon Opens
// (one ref) and Retains once per component that holds the handle, so a
// request path calling Close — the CLI habit of "Close after Analyze" —
// can never tear the warm tiers down under concurrent requests.
func (c *Cache) Retain() *Cache {
	c.st.refs.Add(1)
	return c
}

// Close releases one owner reference, flushing pending batches either way
// (an intermediate release keeps the historical "Close is Flush" behavior,
// so a CLI's single Open→Analyze→Close sequence is unchanged). When the last
// owner releases, the handle latches closed: subsequent reads degrade to
// misses and writes are rejected, so a stale holder can cost recomputes but
// never corrupt a newer owner's view. Closing an already-closed handle is a
// harmless no-op.
func (c *Cache) Close() error {
	for {
		n := c.st.refs.Load()
		if n <= 0 {
			return nil
		}
		if !c.st.refs.CompareAndSwap(n, n-1) {
			continue
		}
		if n > 1 {
			return c.Flush()
		}
		// Last owner: make pending writes durable, then latch closed.
		err := c.flushAll()
		c.st.closed.Store(true)
		return err
	}
}

// Flight deduplicates concurrent computations of key: the first caller
// (the leader) runs fn while every concurrent caller with the same key
// blocks and shares the leader's result. leader reports whether this call
// ran fn. A leader that fails or panics releases its waiters, who retry for
// leadership rather than inheriting the failure; ctx cancellation while
// waiting returns ctx.Err(). The cache does not count singleflight events
// itself — callers charge cache.singleflight.{leader,wait} where they can
// tell a real computation from a fallback cache hit.
func (c *Cache) Flight(ctx context.Context, key string, fn func() (any, error)) (v any, leader bool, err error) {
	return c.st.flight.do(ctx, key, fn)
}

// Stats is a point-in-time snapshot of the in-memory tier (counters live in
// the obs registry; this covers the gauges a CLI wants to print at exit).
type Stats struct {
	L1Entries int64 // values currently held by the memory tier
	L1Bytes   int64 // their charge against the budget (see Recharge)
	Pending   int64 // disk-tier entries buffered but not yet flushed
}

// Stats snapshots the tier gauges.
func (c *Cache) Stats() Stats {
	var s Stats
	if l1 := c.st.l1; l1 != nil {
		s.L1Entries, s.L1Bytes = l1.stats()
	}
	s.Pending = c.st.l2.pendingEntries()
	return s
}

// KeyOf derives a cache key from its parts: each part is length-prefixed
// before hashing so distinct part lists can never collide by concatenation.
func KeyOf(parts ...string) string {
	h := sha256.New()
	// Only the short prefix is copied; each part reaches the hash through
	// a read-only view of its own bytes, since parts include whole file
	// contents.
	pre := make([]byte, 0, 24)
	for _, p := range parts {
		pre = strconv.AppendInt(pre[:0], int64(len(p)), 10)
		h.Write(append(pre, ':'))
		WriteString(h, p)
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// WriteString feeds s to h without copying it: a hash only reads what it
// is given and keeps none of it, so a view of the string's bytes is safe.
func WriteString(h hash.Hash, s string) {
	if s != "" {
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
}
