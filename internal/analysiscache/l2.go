package analysiscache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// packMagic heads every pack file; the trailing digit is the pack format
// version. The file name is the first 32 hex chars of the sha256 of the
// whole file (magic included), so integrity and identity are one check.
const packMagic = "rcpk1\n"

// packNameLen is 32 hash chars + ".pack".
const (
	packHashLen = 32
	packExt     = ".pack"
)

// l2Tier is the disk tier: 16 single-hex-char shard directories of pack
// files plus, per shard, a pending write batch and a lazily loaded index of
// every valid pack's entries. The index retains pack bytes in memory for
// the life of the handle — bounded by what this process actually reads, and
// the payloads the callers decode would otherwise be read again per lookup.
type l2Tier struct {
	dir        string
	flushBytes int64

	shards [numShards]l2Shard
}

type l2Shard struct {
	n  int // shard number; names the directory
	mu sync.Mutex

	// pending is the write batch: queued by put, cleared by flush. Reads
	// consult it first so a process always sees its own writes.
	pending      map[string][]byte
	pendingBytes int64
	dirtySince   time.Time

	// packs indexes every entry of every valid pack seen so far: loaded
	// from disk on the shard's first read, extended in place on every
	// successful flush.
	packs  map[string][]byte
	loaded bool
}

func newL2Tier(dir string, flushBytes int64) *l2Tier {
	t := &l2Tier{dir: dir, flushBytes: flushBytes}
	for i := range t.shards {
		t.shards[i].n = i
	}
	return t
}

func (t *l2Tier) shardDir(n int) string {
	return filepath.Join(t.dir, string("0123456789abcdef"[n]))
}

// lookup returns the payload for key from the pending batch or the pack
// index, loading the shard's packs from disk on first use. corrupt counts
// packs discarded by this call (hash mismatch, unreadable, malformed).
func (t *l2Tier) lookup(key string) (data []byte, corrupt int, ok bool) {
	s := &t.shards[shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.pending[key]; ok {
		return d, 0, true
	}
	corrupt = t.ensureLoaded(s)
	d, ok := s.packs[key]
	return d, corrupt, ok
}

// ensureLoaded reads and verifies every pack in the shard directory once
// per handle. Caller holds s.mu.
func (t *l2Tier) ensureLoaded(s *l2Shard) (corrupt int) {
	if s.loaded {
		return 0
	}
	s.loaded = true
	if s.packs == nil {
		s.packs = make(map[string][]byte)
	}
	ents, err := os.ReadDir(t.shardDir(s.n))
	if err != nil {
		return 0 // no shard dir yet: nothing stored, nothing corrupt
	}
	// ReadDir returns sorted names, so duplicate keys across packs resolve
	// deterministically (identical bytes anyway: keys are content hashes).
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, packExt) || len(name) != packHashLen+len(packExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(t.shardDir(s.n), name))
		if err != nil {
			corrupt++
			continue
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:])[:packHashLen] != name[:packHashLen] {
			// Torn write or bit rot: the whole pack is untrusted. Every
			// entry it held degrades to a miss.
			corrupt++
			continue
		}
		if !parsePack(data, s.packs) {
			corrupt++
			continue
		}
	}
	return corrupt
}

// put queues one entry and reports the shard to flush inline when its batch
// crossed the size threshold or has been dirty past the flush interval
// (nil otherwise). The data slice is retained until flushed.
func (t *l2Tier) put(key string, data []byte) *l2Shard {
	s := &t.shards[shardOf(key)]
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pending[key]; !dup {
		if s.pending == nil {
			s.pending = make(map[string][]byte)
		}
		if len(s.pending) == 0 {
			s.dirtySince = now
		}
		s.pending[key] = data
		s.pendingBytes += int64(len(data))
	}
	if s.pendingBytes >= t.flushBytes || now.Sub(s.dirtySince) >= flushInterval {
		return s
	}
	return nil
}

// flushResult is one shard flush's accounting: packs/entries written, or
// entries dropped with the error that dropped them.
type flushResult struct {
	packs   int
	entries int
	dropped int
	err     error
}

// flushShard writes the shard's pending batch as one pack file. Entries are
// packed in sorted key order, so a given batch always produces identical
// bytes — and therefore an identical file name — no matter which worker
// queued what first; concurrent identical flushes converge on one file. On
// a write failure the batch is dropped: the entries become misses, which is
// the cache's one failure mode.
func (t *l2Tier) flushShard(s *l2Shard) flushResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pending)
	if n == 0 {
		return flushResult{}
	}
	keys := make([]string, 0, n)
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pack := buildPack(keys, s.pending)
	sum := sha256.Sum256(pack)
	name := hex.EncodeToString(sum[:])[:packHashLen] + packExt
	err := t.writePack(s.n, name, pack)

	pending := s.pending
	s.pending = nil
	s.pendingBytes = 0
	s.dirtySince = time.Time{}
	if err != nil {
		return flushResult{dropped: n, err: err}
	}
	// Fold the flushed entries into the index so same-handle reads keep
	// hitting without re-reading the pack.
	if s.packs == nil {
		s.packs = make(map[string][]byte, n)
	}
	for k, v := range pending {
		s.packs[k] = v
	}
	return flushResult{packs: 1, entries: n}
}

// writePack writes one pack file, creating its shard directory first: the
// directory may not exist yet, or may have been deleted since the last
// flush. A flush writes at most one pack per shard, so the probe costs at
// most numShards stat calls per flush.
func (t *l2Tier) writePack(shard int, name string, pack []byte) error {
	dir := t.shardDir(shard)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), pack, 0o644)
}

func (t *l2Tier) pendingEntries() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.pending))
		s.mu.Unlock()
	}
	return n
}

// buildPack serializes the batch: magic, then per entry a length-prefixed
// key and payload. No per-entry checksum — the file name commits to the
// hash of the whole pack.
func buildPack(keys []string, pending map[string][]byte) []byte {
	size := len(packMagic)
	for _, k := range keys {
		size += 8 + len(k) + len(pending[k])
	}
	out := make([]byte, 0, size)
	out = append(out, packMagic...)
	var u [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(u[:], uint32(len(k)))
		out = append(out, u[:]...)
		out = append(out, k...)
		binary.LittleEndian.PutUint32(u[:], uint32(len(pending[k])))
		out = append(out, u[:]...)
		out = append(out, pending[k]...)
	}
	return out
}

// parsePack decodes a hash-verified pack into the index, payloads aliasing
// the pack buffer. A structural failure (possible only through format
// drift, since the hash already matched) rejects the whole pack without
// touching the index.
func parsePack(data []byte, into map[string][]byte) bool {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return false
	}
	type rec struct {
		key string
		val []byte
	}
	var recs []rec
	off := len(packMagic)
	for off < len(data) {
		if off+4 > len(data) {
			return false
		}
		klen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if klen <= 0 || off+klen > len(data) {
			return false
		}
		key := string(data[off : off+klen])
		off += klen
		if off+4 > len(data) {
			return false
		}
		vlen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if vlen < 0 || off+vlen > len(data) {
			return false
		}
		recs = append(recs, rec{key, data[off : off+vlen : off+vlen]})
		off += vlen
	}
	for _, r := range recs {
		into[r.key] = r.val
	}
	return true
}
