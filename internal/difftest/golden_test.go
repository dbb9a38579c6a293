package difftest

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false,
	"rebless the golden artifacts under internal/difftest/golden")

// TestGoldenGate is the ground-truth regression gate: it re-analyzes the
// golden corpus, recomputes per-checker reports and precision/recall/F1, and
// diffs them against the committed golden files. Any checker regression —
// a lost detection, a new false positive, a changed confirmation — fails
// here. Rebless intentional changes with:
//
//	go test ./internal/difftest -run TestGoldenGate -update
func TestGoldenGate(t *testing.T) {
	got, sc := ComputeGolden(nil)

	if *update {
		for name, content := range got {
			if err := os.WriteFile(filepath.Join("golden", name), []byte(content), 0o644); err != nil {
				t.Fatalf("update %s: %v", name, err)
			}
		}
	}

	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join("golden", name))
		if err != nil {
			t.Fatalf("golden artifact missing (run with -update to bless): %v", err)
		}
		if string(want) != got[name] {
			t.Errorf("golden/%s drifted (rebless with -update if intended):\n%s",
				name, firstDiff(string(want), got[name]))
		}
	}

	// The committed scores must themselves satisfy the paper-shaped floor:
	// every planned bug found (recall 1.0) and exactly the seeded baits
	// misreported.
	if sc.Overall.Recall != 1.0 {
		t.Errorf("overall recall = %v, want 1.0 (missed planned bugs)", sc.Overall.Recall)
	}
	if sc.BaitsReported != sc.BaitsSeeded {
		t.Errorf("baits reported = %d, want %d", sc.BaitsReported, sc.BaitsSeeded)
	}
	for _, p := range Patterns {
		if s := sc.ByPattern[p]; s.TP == 0 {
			t.Errorf("pattern %s has no true positives in the golden corpus", p)
		}
	}
}

// TestGoldenGateCatchesRegression proves the gate actually fires: dropping
// one report from the recomputed set must change both a per-checker golden
// file and the scores.
func TestGoldenGateCatchesRegression(t *testing.T) {
	c := goldenCorpus()
	run := Run(FromCorpus(c), 0, nil, nil)
	if len(run.Reports) == 0 {
		t.Fatal("no reports on golden corpus")
	}
	degraded := run.Reports[1:]
	sc := ComputeScores(c, GoldenSeed, degraded)
	full := ComputeScores(c, GoldenSeed, run.Reports)
	if sc.Overall.TP == full.Overall.TP && sc.Overall.FP == full.Overall.FP {
		t.Errorf("dropping a report left TP/FP unchanged: %+v", sc.Overall)
	}
	lost := run.Reports[0]
	want, err := os.ReadFile(filepath.Join("golden", "reports_"+string(lost.Pattern)+".txt"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := RenderReports(degraded, string(lost.Pattern)); got == string(want) {
		t.Errorf("dropping a %s report did not change its golden render", lost.Pattern)
	}
}

// TestSelftest runs the embedded-golden selftest the refcheck binary exposes
// and checks its JSON output parses back into the committed scores.
func TestSelftest(t *testing.T) {
	var buf jsonBuffer
	if err := Selftest(&buf, true, nil); err != nil {
		t.Fatalf("selftest failed: %v", err)
	}
	var sc Scores
	if err := json.Unmarshal(buf.b, &sc); err != nil {
		t.Fatalf("selftest -json output does not parse: %v", err)
	}
	if sc.Seed != GoldenSeed {
		t.Errorf("selftest seed = %d, want %d", sc.Seed, GoldenSeed)
	}
	want, err := os.ReadFile(filepath.Join("golden", "scores.json"))
	if err != nil {
		t.Fatalf("read golden scores: %v", err)
	}
	if string(want) != string(buf.b) {
		t.Errorf("selftest scores differ from committed golden/scores.json")
	}
}

type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}
