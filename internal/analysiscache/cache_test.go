package analysiscache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bincodec"
)

// payload is the test stand-in for a real cache entry: like the production
// entries it owns its binary encoding, built on internal/bincodec.
type payload struct {
	Name  string
	Lines []int
}

func (p *payload) encode() []byte {
	w := bincodec.NewWriter(32)
	w.String(p.Name)
	w.U32(uint32(len(p.Lines)))
	for _, n := range p.Lines {
		w.U64(uint64(n))
	}
	return w.Bytes()
}

func (p *payload) decode(data []byte) error {
	r := bincodec.NewReader(data)
	p.Name = r.String()
	n := r.Count()
	p.Lines = nil
	for i := 0; i < n; i++ {
		p.Lines = append(p.Lines, int(r.U64()))
	}
	return r.Done()
}

// decodePayload is payload's GetValue decode callback.
func decodePayload(data []byte) (any, error) {
	p := new(payload)
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p, nil
}

// get reads key through GetValue into p and reports whether it hit.
func (p *payload) get(c *Cache, key string) bool {
	v, ok := c.GetValue(key, decodePayload)
	if ok {
		*p = *v.(*payload)
	}
	return ok
}

func mustOpen(t *testing.T, dir string, opts ...Option) *Cache {
	t.Helper()
	c, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// packFiles lists every pack file under the cache root.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, packExt) {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	key := KeyOf("test", "round-trip")
	want := payload{Name: "x", Lines: []int{1, 2, 3}}
	if err := c.Put(key, want.encode()); err != nil {
		t.Fatal(err)
	}
	// Pre-flush: the entry is served from the pending batch.
	var got payload
	if !got.get(c, key) {
		t.Fatal("expected hit from the pending batch after Put")
	}
	if got.Name != want.Name || len(got.Lines) != 3 || got.Lines[2] != 3 {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if len(packFiles(t, dir)) != 0 {
		t.Fatal("Put must not write before a flush")
	}

	// Post-flush: a fresh handle reads the pack from disk.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(packFiles(t, dir)) != 1 {
		t.Fatalf("one pending shard must flush as one pack, got %v", packFiles(t, dir))
	}
	got = payload{}
	if !got.get(mustOpen(t, dir), key) || got.Name != "x" {
		t.Fatal("expected hit from disk after Flush")
	}
}

func TestMissingKey(t *testing.T) {
	c := mustOpen(t, t.TempDir())
	var v payload
	if v.get(c, KeyOf("never", "stored")) {
		t.Fatal("expected miss for unknown key")
	}
	if v.get(c, "") || v.get(c, "a") {
		t.Fatal("short keys must miss, not panic")
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	key := KeyOf("corrupt")
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

	// Truncated pack → its name no longer matches its hash → every entry
	// in it is a miss (a fresh handle sees the disk state; the writing
	// handle legitimately still serves from its in-memory index).
	data, err := os.ReadFile(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(packs[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var v payload
	if v.get(mustOpen(t, dir), key) {
		t.Fatal("truncated pack must be a miss")
	}

	// Garbage pack → miss.
	if err := os.WriteFile(packs[0], []byte("not a valid pack"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v.get(mustOpen(t, dir), key) {
		t.Fatal("garbage pack must be a miss")
	}

	// Re-Put + Flush repairs by writing a new, valid pack alongside.
	c2 := mustOpen(t, dir)
	if err := c2.Put(key, (&payload{Name: "again"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !v.get(mustOpen(t, dir), key) || v.Name != "again" {
		t.Fatal("Put+Flush over a corrupt pack must restore the entry")
	}
}

// TestOldFormatDirIsCleanMisses pins the format-migration contract: a cache
// root populated by a retired layout (two-hex-char shard dirs of .gob or
// .bin files) serves clean misses — not errors, not corruption counts — and
// the current format repopulates alongside without touching the old files.
func TestOldFormatDirIsCleanMisses(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("migrated")
	oldPaths := []string{
		filepath.Join(dir, key[:2], key+".gob"),
		filepath.Join(dir, key[:2], key+".bin"),
	}
	for _, p := range oldPaths {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("old-era bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := mustOpen(t, dir)
	var v payload
	if v.get(c, key) {
		t.Fatal("old-format entry must read as a miss")
	}
	if err := c.Put(key, (&payload{Name: "new"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !v.get(mustOpen(t, dir), key) || v.Name != "new" {
		t.Fatal("current format must repopulate alongside the old files")
	}
	for _, p := range oldPaths {
		if _, err := os.Stat(p); err != nil {
			t.Fatal("migration must not delete old-format files")
		}
	}
}

// TestShardDirDeletedMidRun: after a flush has created a shard directory,
// deleting the whole cache root must not make later flushes fail silently —
// the next flush to that shard recreates the directory and writes the batch.
func TestShardDirDeletedMidRun(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	k1 := KeyOf("first")
	if err := c.Put(k1, (&payload{Name: "first"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// The cache root vanishes mid-run (a cleanup job, a tmpfs wipe).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	// A second key in the same shard, whose directory is gone.
	k2 := k1
	for i := 0; k2 == k1 || shardOf(k2) != shardOf(k1); i++ {
		k2 = KeyOf("second", string(rune('a'+i)))
	}
	if err := c.Put(k2, (&payload{Name: "second"}).encode()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after cache-dir deletion must recreate the shard dir, got %v", err)
	}
	var v payload
	if !v.get(c, k2) || v.Name != "second" {
		t.Fatal("same-handle read must hit after the repaired flush")
	}
	if !v.get(mustOpen(t, dir), k2) || v.Name != "second" {
		t.Fatal("the repaired flush must be durable on disk")
	}
}

func TestKeyOfLengthPrefixing(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("KeyOf must not collide on concatenation boundaries")
	}
	if KeyOf("x") != KeyOf("x") {
		t.Fatal("KeyOf must be deterministic")
	}
}

// TestKeyOfDerivation pins the key derivation — sha256 over each part
// framed as "<decimal length>:<part>" — so a rewrite of KeyOf cannot
// silently turn every entry an existing cache holds into a miss.
func TestKeyOfDerivation(t *testing.T) {
	sum := sha256.Sum256([]byte("5:fe-v57:a/b.c/x0:"))
	if got, want := KeyOf("fe-v5", "a/b.c/x", ""), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("KeyOf = %s, want %s", got, want)
	}
}
