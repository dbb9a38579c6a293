package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setValues groups a result set's per-run metric values by workload and
// metric, and totals its operations. A run with a failed operation
// contributes no values: its metrics cover only the operations that
// succeeded, or are 0 when none did.
type setValues struct {
	vals              map[string]map[string][]float64
	attempted, failed map[string]int
}

func (s *setValues) failRate(workload string) float64 {
	return ratio(float64(s.failed[workload]), float64(s.attempted[workload]))
}

func loadSet(path string) (*resultSet, *setValues, error) {
	var set resultSet
	if err := readJSON(path, &set); err != nil {
		return nil, nil, err
	}
	sv := &setValues{vals: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range set.Runs {
		if sv.vals[r.Workload] == nil {
			sv.vals[r.Workload] = map[string][]float64{}
		}
		sv.attempted[r.Workload] += r.Attempted
		sv.failed[r.Workload] += r.Failed
		if r.Failed > 0 {
			continue
		}
		for name, m := range r.Metrics {
			sv.vals[r.Workload][name] = append(sv.vals[r.Workload][name], m.Value)
		}
	}
	return &set, sv, nil
}

// verdict judges B against A for one metric, given each side's values from
// runs without failures and the share of its operations that failed.
// worse is the relative change in the bad direction (negative when B is
// better); spread is the larger of the two sides' quartile distance
// relative to its median. B failing a larger share of its operations than
// A is a "failed" verdict whatever its times.
func verdict(a, b []float64, aFail, bFail float64, better string, bound float64) (worse, spread float64, v string) {
	if bFail > aFail {
		return math.NaN(), math.NaN(), "failed"
	}
	if len(a) == 0 || len(b) == 0 {
		return math.NaN(), math.NaN(), "unresolved"
	}
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	spread = math.Max((aq3-aq1)/math.Abs(am), (bq3-bq1)/math.Abs(bm))
	worse = (bm - am) / math.Abs(am)
	if better == "higher" {
		worse = -worse
	}
	// all(1) reports whether every B run reads worse than every A run,
	// all(-1) whether every B run reads better.
	all := func(sign float64) bool {
		for _, x := range a {
			for _, y := range b {
				d := y - x
				if better == "higher" {
					d = -d
				}
				if d*sign <= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > bound:
		switch {
		case all(-1):
			v = "better"
		case all(1):
			v = "worse"
		default:
			v = "unresolved"
		}
	case worse > bound:
		v = "worse"
	case -worse > bound:
		v = "better"
	default:
		v = "no worse"
	}
	return worse, spread, v
}

// compareFiles prints, per workload and metric, both sets' medians and
// quartiles over their runs without failures and a verdict against the
// metric's bound in BENCHMARK.json: better, no worse, worse, unresolved
// when the spread between runs is wider than the bound, or failed when B
// fails a larger share of its operations than A. Per-layer metrics have no
// bound and get no verdict.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	setA, a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	setB, b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  (%s, %d CPU, GOMAXPROCS %d, commit %.12s)\n", pathA,
		setA.Host.GoVersion, setA.Host.NumCPU, setA.Host.GOMAXPROCS, setA.Host.Commit)
	fmt.Fprintf(w, "B: %s  (%s, %d CPU, GOMAXPROCS %d, commit %.12s)\n\n", pathB,
		setB.Host.GoVersion, setB.Host.NumCPU, setB.Host.GOMAXPROCS, setB.Host.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tA median\tA q1\tA q3\tB median\tB q1\tB q3\tworse by\tspread\tbound\tverdict\t")
	counts := map[string]int{}
	rows := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range workloads {
		av, bv := a.vals[wl.name], b.vals[wl.name]
		if av == nil || bv == nil {
			continue
		}
		for i, m := range rows {
			xa, xb := av[m.Name], bv[m.Name]
			// An end-to-end row stays when one side has values, so a side
			// whose every run failed still gets its verdict.
			if len(xa) == 0 && len(xb) == 0 || i >= len(spec.EndToEnd) && (len(xa) == 0 || len(xb) == 0) {
				continue
			}
			aq1, am, aq3 := quartiles(xa)
			bq1, bm, bq3 := quartiles(xb)
			worse, spread, v := verdict(xa, xb, a.failRate(wl.name), b.failRate(wl.name), m.Better, m.Bound)
			bound := fmt.Sprintf("%.2f", m.Bound)
			if i >= len(spec.EndToEnd) {
				v, bound = "-", "-"
			} else {
				counts[v]++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%s\t%s\t\n",
				wl.name, m.Name, m.Unit, len(xa), len(xb), am, aq1, aq3, bm, bq1, bq3, 100*worse, 100*spread, bound, v)
		}
		fmt.Fprintf(tw, "%s\toperations failed\t\t\t%d/%d\t\t\t%d/%d\t\t\t\t\t\t\t\n",
			wl.name, a.failed[wl.name], a.attempted[wl.name], b.failed[wl.name], b.attempted[wl.name])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nend-to-end verdicts: %d better, %d no worse, %d worse, %d unresolved, %d failed\n",
		counts["better"], counts["no worse"], counts["worse"], counts["unresolved"], counts["failed"])
	return nil
}
