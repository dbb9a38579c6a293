package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/difftest"
)

// oracle checks one operation's `-json` report output against the generated
// corpus's plan: every planned bug found, and exactly the seeded baits as
// false positives. The edits the workloads make (comments at end of file)
// keep that plan valid for every tree they produce. Identical output bytes
// score identically, so each distinct output is scored once and later
// operations compare hashes.
type oracle struct {
	corpus *corpus.Corpus
	seed   int64

	mu     sync.Mutex
	scored map[[32]byte]error
}

func newOracle(c *corpus.Corpus, seed int64) *oracle {
	return &oracle{corpus: c, seed: seed, scored: map[[32]byte]error{}}
}

// check returns nil when out is a correct report list for the corpus.
func (o *oracle) check(out []byte) error {
	h := sha256.Sum256(out)
	o.mu.Lock()
	err, seen := o.scored[h]
	o.mu.Unlock()
	if seen {
		return err
	}
	err = scoreJSON(o.corpus, o.seed, out)
	o.mu.Lock()
	o.scored[h] = err
	o.mu.Unlock()
	return err
}

// scoreJSON parses a refcheck -json report array and scores it against the
// corpus plan with difftest.ComputeScores.
func scoreJSON(c *corpus.Corpus, seed int64, out []byte) error {
	var rows []struct{ Pattern, Function string }
	if err := json.Unmarshal(out, &rows); err != nil {
		return fmt.Errorf("oracle: reports are not a JSON array: %v", err)
	}
	reports := make([]core.Report, len(rows))
	for i, r := range rows {
		reports[i] = core.Report{Pattern: core.Pattern(r.Pattern), Function: r.Function}
	}
	return scoreReports(c, seed, reports)
}

func scoreReports(c *corpus.Corpus, seed int64, reports []core.Report) error {
	sc := difftest.ComputeScores(c, seed, reports)
	switch {
	case sc.Overall.TP != sc.Planned:
		return fmt.Errorf("oracle: %d of %d planned bugs reported", sc.Overall.TP, sc.Planned)
	case sc.Overall.FP != sc.BaitsSeeded || sc.BaitsReported != sc.BaitsSeeded:
		return fmt.Errorf("oracle: %d false positives, %d of %d baits reported",
			sc.Overall.FP, sc.BaitsReported, sc.BaitsSeeded)
	}
	return nil
}
