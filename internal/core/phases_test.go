package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// phasesSpec is a compact corpus covering every anti-pattern family plus a
// bait, so the phased pipeline is exercised across cross-file discovery
// (loops, wrappers, callback pairs) — the parts a partitioned run could
// plausibly get wrong.
func phasesSpec() corpus.Spec {
	return corpus.Spec{
		Seed:           11,
		CleanPerModule: 2,
		FPBaits:        2,
		Plan: []corpus.ModulePlan{
			{Subsystem: "arch", Module: "arm",
				Patterns:   map[corpus.PatternID]int{"P4": 2, "P6": 1, "P7": 1, "P9": 1},
				TopAPIs:    []string{"of_find_compatible_node", "of_find_matching_node"},
				MissingGet: 1},
			{Subsystem: "drivers", Module: "mfd",
				Patterns: map[corpus.PatternID]int{"P1": 1},
				TopAPIs:  []string{"pm_runtime_get_sync"}},
			{Subsystem: "drivers", Module: "gpu",
				Patterns: map[corpus.PatternID]int{"P3": 1, "P5": 1, "P8": 1},
				TopAPIs:  []string{"of_graph_get_port_by_id", "for_each_child_of_node"}},
			{Subsystem: "net", Module: "ipv4",
				Patterns:  map[corpus.PatternID]int{"P2": 1, "P8": 1},
				TopAPIs:   []string{"sock_put"},
				PinnedUAD: 1},
		},
	}
}

func phasesCorpus() ([]cpg.Source, map[string]string) {
	c := corpus.Generate(phasesSpec())
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs, c.Headers
}

// runPhased drives the two-round pipeline in-process at a given shard
// count, exactly as the multi-process manager does: a local round per
// shard, one exchange over every shard's records, a check round per shard
// whose result crosses the result codec, and the finish — recording into
// tr (nil disables). The returned Run's Unit holds the shards' errors.
func runPhased(t *testing.T, srcs []cpg.Source, headers map[string]string, shards int, opt Options, tr *obs.Trace) *Run {
	t.Helper()
	ctx := context.Background()
	opt.DB = apidb.New()
	req := Request{Sources: srcs, Headers: headers, Options: opt, Trace: tr}

	var arts []*cpg.ShardArtifact
	var recs []cpg.FileRecord
	for _, shard := range Partition(srcs, shards) {
		art, err := LocalRound(ctx, req, shard)
		if err != nil {
			t.Fatalf("shards=%d: LocalRound: %v", shards, err)
		}
		arts = append(arts, art)
		recs = append(recs, art.Records()...)
	}
	sp := tr.Root().Child("phase:exchange")
	x := cpg.ExchangeRecords(opt.DB, recs)
	sp.End()
	var results []*ShardResult
	unit := &cpg.Unit{}
	for _, art := range arts {
		res, err := CheckRound(ctx, req, x, art)
		if err != nil {
			t.Fatalf("shards=%d: CheckRound: %v", shards, err)
		}
		unit.Errors = append(unit.Errors, (&cpg.Builder{DB: opt.DB}).AssembleShard(art, x).Errors...)
		dec, err := DecodeShardResult(res.Encode())
		if err != nil {
			t.Fatalf("shards=%d: result round trip: %v", shards, err)
		}
		results = append(results, dec)
	}
	run, err := Finish(ctx, req, x, results)
	if err != nil {
		t.Fatalf("shards=%d: Finish: %v", shards, err)
	}
	run.Unit = unit
	return run
}

// TestPhasedPipelineMatchesAnalyze is the core-layer determinism pin:
// Partition → LocalRound per shard → exchange → CheckRound per shard →
// Finish must reproduce
// Analyze's reports and summary exactly at every shard count, including
// shard counts exceeding the file count.
func TestPhasedPipelineMatchesAnalyze(t *testing.T) {
	srcs, headers := phasesCorpus()
	opt := Options{Workers: 2, Confirm: true}
	want, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reports) == 0 {
		t.Fatal("reference run produced no reports")
	}

	for _, shards := range []int{1, 2, 3, 7, len(srcs) + 5} {
		run := runPhased(t, srcs, headers, shards, opt, nil)
		if !reflect.DeepEqual(run.Reports, want.Reports) {
			t.Errorf("shards=%d: reports differ from Analyze (%d vs %d)",
				shards, len(run.Reports), len(want.Reports))
		}
		if run.Summary != want.Summary {
			t.Errorf("shards=%d: summary %+v != %+v", shards, run.Summary, want.Summary)
		}
		if run.Unit == nil || len(run.Unit.Errors) != len(want.Unit.Errors) {
			t.Errorf("shards=%d: unit errors differ", shards)
		}
	}
}

// TestOneSpanShape pins that every mode runs the same pipeline: the
// uncached Analyze, a cache-leader Analyze and the phased pipeline the
// manager drives all emit phase:local, phase:exchange, phase:assemble and
// phase:check under the root (the leader adds its cache lookup and store),
// plus phase:confirm when confirming — never a phase of their own.
func TestOneSpanShape(t *testing.T) {
	srcs, headers := phasesCorpus()
	pipeline := []string{"phase:assemble", "phase:check", "phase:exchange", "phase:local"}
	for _, confirm := range []bool{false, true} {
		opt := Options{Workers: 2, Confirm: confirm}
		with := func(names ...string) []string {
			if confirm {
				names = append(names, "phase:confirm")
			}
			sort.Strings(names)
			return names
		}
		uncached := obs.New("uncached")
		if _, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers, Options: opt, Trace: uncached}); err != nil {
			t.Fatal(err)
		}
		cache, err := analysiscache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		leader := obs.New("leader")
		copt := opt
		copt.Cache = cache
		if _, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers, Options: copt, Trace: leader}); err != nil {
			t.Fatal(err)
		}
		cache.Close()
		if n := leader.Reg().Counter("cache.singleflight.leader"); n != 1 {
			t.Fatalf("cache.singleflight.leader = %d, want 1", n)
		}
		phased := obs.New("phased")
		runPhased(t, srcs, headers, 3, opt, phased)

		for _, c := range []struct {
			mode string
			tr   *obs.Trace
			want []string
		}{
			{"uncached Analyze", uncached, with(pipeline...)},
			{"cache-leader Analyze", leader, with(append([]string{"phase:cache-lookup", "phase:cache-store"}, pipeline...)...)},
			{"phased", phased, with(pipeline...)},
		} {
			seen := map[string]bool{}
			var got []string
			for _, ph := range obs.Stats(c.tr).Phases {
				if !seen[ph.Name] {
					seen[ph.Name] = true
					got = append(got, ph.Name)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("confirm=%v: %s phases = %v, want %v", confirm, c.mode, got, c.want)
			}
		}
	}
}

// TestPartition pins the partition function's contract: deterministic,
// disjoint, byte-balanced (zero-byte files deal round-robin), independent
// of input order, clamped shard count.
func TestPartition(t *testing.T) {
	srcs := []cpg.Source{
		{Path: "c.c"}, {Path: "a.c"}, {Path: "b.c"}, {Path: "d.c"},
	}
	parts := Partition(srcs, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	got := [][]string{}
	for _, p := range parts {
		var paths []string
		for _, s := range p {
			paths = append(paths, s.Path)
		}
		got = append(got, paths)
	}
	want := [][]string{{"a.c", "d.c"}, {"b.c"}, {"c.c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partition = %v, want %v", got, want)
	}

	if p := Partition(srcs, 99); len(p) != len(srcs) {
		t.Errorf("oversharded partition has %d shards, want %d", len(p), len(srcs))
	}
	if p := Partition(srcs, 0); len(p) != 1 {
		t.Errorf("shards=0 partition has %d shards, want 1", len(p))
	}
	if p := Partition(nil, 4); p != nil {
		t.Errorf("empty corpus partition = %v, want nil", p)
	}

	// Byte balance: on a generated corpus the heaviest and lightest shards
	// differ by at most the largest file, and a permuted corpus partitions
	// the same way.
	gen, _ := phasesCorpus()
	largest := 0
	for _, s := range gen {
		largest = max(largest, len(s.Content))
	}
	for _, n := range []int{2, 3, 5} {
		parts := Partition(gen, n)
		lo, hi, files := int(^uint(0)>>1), 0, 0
		for _, p := range parts {
			size := 0
			for _, s := range p {
				size += len(s.Content)
			}
			lo, hi, files = min(lo, size), max(hi, size), files+len(p)
			if !sort.SliceIsSorted(p, func(i, j int) bool { return p[i].Path < p[j].Path }) {
				t.Errorf("shards=%d: a shard is not sorted by path", n)
			}
		}
		if len(parts) != n || files != len(gen) {
			t.Fatalf("shards=%d: %d shards holding %d files, want %d holding %d", n, len(parts), files, n, len(gen))
		}
		if hi-lo > largest {
			t.Errorf("shards=%d: shard bytes span %d..%d, more apart than the largest file (%d)", n, lo, hi, largest)
		}
		perm := append([]cpg.Source(nil), gen...)
		rand.New(rand.NewSource(int64(n))).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !reflect.DeepEqual(Partition(perm, n), parts) {
			t.Errorf("shards=%d: a permuted corpus partitions differently", n)
		}
	}
}
