package difftest

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// GoldenSeed pins the corpus the regression gate is blessed against.
const GoldenSeed = 1

// Patterns lists the nine anti-patterns in order.
var Patterns = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9"}

// PatternScore is the confusion summary for one anti-pattern. A planned bug
// counts as a true positive when at least one report matches its
// (function, pattern) key; a report key matching no planned bug is a false
// positive (the seeded baits, mirroring the paper's 5 FPs).
type PatternScore struct {
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Scores is the ground-truth quality ledger committed as golden/scores.json
// (and emitted as BENCH_quality.json by scripts/difftest.sh).
type Scores struct {
	Seed          int64                   `json:"seed"`
	Planned       int                     `json:"planned_bugs"`
	Reports       int                     `json:"reports"`
	Confirmed     int                     `json:"confirmed"`
	BaitsSeeded   int                     `json:"baits_seeded"`
	BaitsReported int                     `json:"baits_reported"`
	ByPattern     map[string]PatternScore `json:"by_pattern"`
	Overall       PatternScore            `json:"overall"`
}

func finishScore(s *PatternScore) {
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.FN > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.FN)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
}

// ComputeScores evaluates a report list against the corpus plan. Matching
// follows internal/study's model: reports and planned bugs join on the
// (function, pattern) key; multiple reports on one key collapse to one
// detection.
func ComputeScores(c *corpus.Corpus, seed int64, reports []core.Report) Scores {
	type key struct{ fn, pattern string }
	reported := map[key]bool{}
	confirmed := 0
	for _, r := range reports {
		reported[key{r.Function, string(r.Pattern)}] = true
		if r.Confirmed {
			confirmed++
		}
	}
	matched := map[key]bool{}

	sc := Scores{
		Seed: seed, Planned: len(c.Planned), Reports: len(reports),
		Confirmed: confirmed, BaitsSeeded: len(c.Baits),
		ByPattern: map[string]PatternScore{},
	}
	per := map[string]*PatternScore{}
	for _, p := range Patterns {
		per[p] = &PatternScore{}
	}

	for _, pb := range c.Planned {
		k := key{pb.Function, string(pb.Pattern)}
		s := per[string(pb.Pattern)]
		if reported[k] {
			matched[k] = true
			s.TP++
			sc.Overall.TP++
		} else {
			s.FN++
			sc.Overall.FN++
		}
	}
	baited := map[string]bool{}
	for _, b := range c.Baits {
		baited[b.Function] = true
	}
	baitHit := map[string]bool{}
	for k := range reported {
		if matched[k] {
			continue
		}
		if s := per[k.pattern]; s != nil {
			s.FP++
		}
		sc.Overall.FP++
		if baited[k.fn] {
			baitHit[k.fn] = true
		}
	}
	sc.BaitsReported = len(baitHit)

	for p, s := range per {
		finishScore(s)
		sc.ByPattern[p] = *s
	}
	finishScore(&sc.Overall)
	return sc
}

// GoldenGate scores a report list against the golden corpus and errors
// unless it reproduces the blessed confusion matrix exactly: every planned
// bug detected and exactly the seeded baits as false positives. Matching
// needs only the (function, pattern) key, so callers that recovered reports
// from a serialized form — refcheckd's JSON output crossing the wire, say —
// can prove full checker fidelity end to end.
func GoldenGate(reports []core.Report) error {
	c := goldenCorpus()
	sc := ComputeScores(c, GoldenSeed, reports)
	switch {
	case sc.Overall.FN != 0 || sc.Overall.TP != sc.Planned:
		return fmt.Errorf("golden gate: %d/%d planned bugs detected (%d missed)",
			sc.Overall.TP, sc.Planned, sc.Overall.FN)
	case sc.Overall.FP != sc.BaitsSeeded || sc.BaitsReported != sc.BaitsSeeded:
		return fmt.Errorf("golden gate: FP=%d with %d baits reported, want exactly the %d seeded baits",
			sc.Overall.FP, sc.BaitsReported, sc.BaitsSeeded)
	}
	return nil
}

// RenderReports renders one sorted report line per finding of the given
// pattern; these are the per-checker golden files.
func RenderReports(reports []core.Report, pattern string) string {
	var lines []string
	for _, r := range reports {
		if string(r.Pattern) != pattern {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s | confirmed=%v", r.String(), r.Confirmed))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// goldenCorpus regenerates the pinned corpus the gate is blessed against.
func goldenCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Spec{Seed: GoldenSeed})
}

// ComputeGolden analyzes the golden corpus, recording into tr (nil
// disables observability), and returns the artifact set the gate compares:
// one reports_PN.txt render per checker plus scores.json. The artifacts are
// byte-identical with observability on or off, which is exactly what
// `refcheck -selftest -trace-out` proves.
func ComputeGolden(tr *obs.Trace) (map[string]string, Scores) {
	c := goldenCorpus()
	ss := FromCorpus(c)
	run := Run(ss, 0, nil, tr)
	sc := ComputeScores(c, GoldenSeed, run.Reports)

	files := map[string]string{}
	for _, p := range Patterns {
		files["reports_"+p+".txt"] = RenderReports(run.Reports, p)
	}
	js, _ := json.MarshalIndent(sc, "", "  ")
	files["scores.json"] = string(js) + "\n"
	return files, sc
}

//go:embed golden
var goldenFS embed.FS

// Selftest recomputes the golden artifacts and diffs them against the copies
// embedded at build time, so a released binary can prove its checkers still
// reproduce the blessed results (`refcheck -selftest`). With jsonOut the
// recomputed scores are printed as JSON (the BENCH_quality.json payload);
// otherwise a per-pattern table is printed. The re-analysis is recorded into
// tr (nil disables it), so the gate can simultaneously prove the artifacts
// and exercise the exporters against a full-pipeline trace. Returns an
// error on any drift.
func Selftest(w io.Writer, jsonOut bool, tr *obs.Trace) error {
	got, sc := ComputeGolden(tr)
	var drift []string
	for name, want := range readGolden() {
		if got[name] != want {
			drift = append(drift, fmt.Sprintf("%s: %s", name, firstDiff(want, got[name])))
		}
	}
	sort.Strings(drift)

	if jsonOut {
		fmt.Fprint(w, got["scores.json"])
	} else {
		fmt.Fprintf(w, "selftest: corpus seed %d, %d planned bugs, %d reports (%d confirmed), %d/%d baits reported\n",
			sc.Seed, sc.Planned, sc.Reports, sc.Confirmed, sc.BaitsReported, sc.BaitsSeeded)
		for _, p := range Patterns {
			s := sc.ByPattern[p]
			fmt.Fprintf(w, "  %s: TP=%d FP=%d FN=%d precision=%.3f recall=%.3f f1=%.3f\n",
				p, s.TP, s.FP, s.FN, s.Precision, s.Recall, s.F1)
		}
		fmt.Fprintf(w, "  overall: TP=%d FP=%d FN=%d precision=%.3f recall=%.3f f1=%.3f\n",
			sc.Overall.TP, sc.Overall.FP, sc.Overall.FN,
			sc.Overall.Precision, sc.Overall.Recall, sc.Overall.F1)
	}
	if len(drift) > 0 {
		return fmt.Errorf("selftest: %d golden artifact(s) drifted:\n%s",
			len(drift), strings.Join(drift, "\n"))
	}
	return nil
}

// readGolden loads the embedded golden artifacts as name → content.
func readGolden() map[string]string {
	out := map[string]string{}
	entries, err := goldenFS.ReadDir("golden")
	if err != nil {
		return out
	}
	for _, e := range entries {
		data, err := goldenFS.ReadFile("golden/" + e.Name())
		if err == nil {
			out[e.Name()] = string(data)
		}
	}
	return out
}
