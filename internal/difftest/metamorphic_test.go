package difftest

import (
	"testing"

	"repro/internal/corpus"
)

// smallSpec is a compact corpus plan covering all nine anti-patterns, the
// missing-increase P4 flavour, a pinned P8, and both leading bait spots
// (arch/arm and drivers/gpu) — small enough that the full differential
// matrix can run once per transform.
func smallSpec() corpus.Spec {
	return corpus.Spec{
		Seed:           7,
		CleanPerModule: 3,
		FPBaits:        2,
		Plan: []corpus.ModulePlan{
			{Subsystem: "arch", Module: "arm",
				Patterns:   map[corpus.PatternID]int{"P4": 3, "P6": 1, "P7": 1, "P9": 1},
				TopAPIs:    []string{"of_find_compatible_node", "of_find_matching_node"},
				MissingGet: 1},
			{Subsystem: "drivers", Module: "mfd",
				Patterns: map[corpus.PatternID]int{"P1": 1},
				TopAPIs:  []string{"pm_runtime_get_sync"}},
			{Subsystem: "drivers", Module: "tty",
				Patterns: map[corpus.PatternID]int{"P2": 1, "P4": 1},
				TopAPIs:  []string{"mdesc_grab"}},
			{Subsystem: "drivers", Module: "gpu",
				Patterns: map[corpus.PatternID]int{"P3": 2, "P5": 1, "P8": 1},
				TopAPIs:  []string{"of_graph_get_port_by_id", "for_each_child_of_node"}},
			{Subsystem: "net", Module: "ipv4",
				Patterns:  map[corpus.PatternID]int{"P8": 1},
				TopAPIs:   []string{"sock_put"},
				PinnedUAD: 1},
		},
	}
}

func smallSet(t *testing.T) (*corpus.Corpus, SourceSet) {
	t.Helper()
	c := corpus.Generate(smallSpec())
	ss := FromCorpus(c)
	if len(ss.Sources) == 0 {
		t.Fatal("small corpus generated no sources")
	}
	return c, ss
}

// TestMetamorphicPreserving applies each semantics-preserving transform and
// asserts the report signature multiset is invariant (after MapSig). Every
// transformed input additionally runs through the full
// {workers 1,N} × {no cache, cold, warm} matrix, so a transform that trips a
// parallelism or caching bug fails here too.
func TestMetamorphicPreserving(t *testing.T) {
	c, ss := smallSet(t)
	base, err := Matrix(ss)
	if err != nil {
		t.Fatal(err)
	}
	baseSigs := SigsOf(base.Reports)
	if len(baseSigs) < len(c.Planned) {
		t.Fatalf("baseline found %d signatures for %d planned bugs", len(baseSigs), len(c.Planned))
	}

	for _, tr := range PreservingTransforms() {
		t.Run(tr.Name, func(t *testing.T) {
			mut := tr.Apply(ss)
			changed := len(mut.Sources) != len(ss.Sources) || len(mut.Headers) != len(ss.Headers)
			for i := 0; !changed && i < len(ss.Sources); i++ {
				changed = mut.Sources[i] != ss.Sources[i]
			}
			if !changed {
				t.Fatal("transform is a no-op: the invariance assertion would be vacuous")
			}
			run, err := Matrix(mut)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]Sig(nil), baseSigs...)
			if tr.MapSig != nil {
				for i := range want {
					want[i] = tr.MapSig(want[i])
				}
				SortSigs(want)
			}
			lost, gained := DiffSigs(want, SigsOf(run.Reports))
			for _, s := range lost {
				t.Errorf("lost signature: %s", s)
			}
			for _, s := range gained {
				t.Errorf("gained signature: %s", s)
			}
		})
	}
}

// TestMetamorphicInjection appends each pattern's canonical buggy listing
// and asserts the checkers gain reports for exactly the injected function —
// including at least one of the injected pattern — and lose nothing.
func TestMetamorphicInjection(t *testing.T) {
	_, ss := smallSet(t)
	baseSigs := SigsOf(Run(ss, 0, nil, nil).Reports)

	for _, p := range Patterns {
		t.Run(p, func(t *testing.T) {
			mut, fn := InjectBug(ss, corpus.PatternID(p))
			lost, gained := DiffSigs(baseSigs, SigsOf(Run(mut, 0, nil, nil).Reports))
			for _, s := range lost {
				t.Errorf("injection removed unrelated signature: %s", s)
			}
			if len(gained) == 0 {
				t.Fatalf("injecting a %s bug produced no new reports", p)
			}
			sawPattern := false
			for _, s := range gained {
				if s.Function != fn {
					t.Errorf("injection gained a signature outside %s: %s", fn, s)
				}
				if s.Pattern == p {
					sawPattern = true
				}
			}
			if !sawPattern {
				t.Errorf("no %s signature among gains: %v", p, gained)
			}
		})
	}
}

// TestMetamorphicRemoval deletes a planned bug's function and asserts the
// checkers lose exactly that function's reports and gain nothing.
func TestMetamorphicRemoval(t *testing.T) {
	c, ss := smallSet(t)
	baseSigs := SigsOf(Run(ss, 0, nil, nil).Reports)

	picked := map[corpus.PatternID]corpus.PlannedBug{}
	for _, pb := range c.Planned {
		switch pb.Pattern {
		case "P2", "P4", "P8":
			if _, ok := picked[pb.Pattern]; !ok {
				picked[pb.Pattern] = pb
			}
		}
	}
	if len(picked) != 3 {
		t.Fatalf("expected planned P2/P4/P8 bugs in the small corpus, got %v", picked)
	}
	for p, pb := range picked {
		t.Run(string(p), func(t *testing.T) {
			mut := RemoveFunction(ss, pb.File, pb.Function)
			lost, gained := DiffSigs(baseSigs, SigsOf(Run(mut, 0, nil, nil).Reports))
			for _, s := range gained {
				t.Errorf("removal added signature: %s", s)
			}
			if len(lost) == 0 {
				t.Fatalf("removing %s did not remove its report", pb.Function)
			}
			for _, s := range lost {
				if s.Function != pb.Function {
					t.Errorf("removal lost unrelated signature: %s", s)
				}
			}
		})
	}
}
