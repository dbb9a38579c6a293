package cpg

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// checkSeedCorpus keeps the checked-in seed corpus of one fuzz target
// current. With REGEN_FUZZ_CORPUS=1 it rewrites testdata/fuzz/<target> from
// seeds; without it, it fails when a seed is missing or differs from what
// regeneration would write — so a format change that forgets to regenerate
// fails here instead of leaving the fuzzer only stale probes. Other files in
// the directory (inputs the fuzzer saved) are left alone.
func checkSeedCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	regen := os.Getenv("REGEN_FUZZ_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if regen {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("seed %s is missing or stale (regenerate with REGEN_FUZZ_CORPUS=1 go test -run TestRegen ./internal/cpg): %v", path, err)
		}
	}
}

// TestRegenFuzzSeedCorpus keeps FuzzCacheCodec's seed corpus current: one
// valid entry of the current format alongside the malformed probes.
func TestRegenFuzzSeedCorpus(t *testing.T) {
	full := encodeFrontEntry(sampleEntry())
	checkSeedCorpus(t, "FuzzCacheCodec", map[string][]byte{
		"seed_valid_full":  full,
		"seed_valid_empty": encodeFrontEntry(&frontEntry{}),
		"seed_magic_only":  {frontFormat},
		"seed_truncated":   full[:10],
		"seed_garbage":     {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	})
}

// TestRegenArtifactFuzzSeedCorpus keeps FuzzShardArtifactCodec's seed corpus
// current: a valid artifact of the current format, encoded from a real
// shard-local build, alongside the malformed probes.
func TestRegenArtifactFuzzSeedCorpus(t *testing.T) {
	b := &Builder{Workers: 1}
	real := EncodeShardArtifact(b.BuildArtifactContext(context.Background(), artifactSources(), true))
	checkSeedCorpus(t, "FuzzShardArtifactCodec", map[string][]byte{
		"seed_valid_real":  real,
		"seed_valid_empty": EncodeShardArtifact(&ShardArtifact{}),
		"seed_magic_only":  {artifactFormat},
		"seed_truncated":   real[:10],
		"seed_garbage":     {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	})
}

// TestRegenRecordsFuzzSeedCorpus keeps FuzzRecordsCodec's seed corpus
// current: a real shard's records of the current format alongside the
// malformed probes.
func TestRegenRecordsFuzzSeedCorpus(t *testing.T) {
	real := EncodeRecords(sampleRecords(t))
	checkSeedCorpus(t, "FuzzRecordsCodec", map[string][]byte{
		"seed_valid_real":  real,
		"seed_valid_empty": EncodeRecords(nil),
		"seed_magic_only":  {recordsFormat},
		"seed_truncated":   real[:10],
		"seed_garbage":     {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	})
}
