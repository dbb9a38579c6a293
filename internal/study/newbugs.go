package study

import (
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/refsim"
)

// Status is the patch-committing outcome of a new-bug report (§6.4).
type Status string

// Statuses. CFM = confirmed by the oracle (developer-accepted in the paper),
// PR = patch rejected (the pinned-UAD cases), NR = no maintainer response
// (modelled socially: a deterministic subset of otherwise-confirmed
// reports), FP = false positive (checker report on a seeded bait).
const (
	CFM Status = "CFM"
	PR  Status = "PR"
	NR  Status = "NR"
	FP  Status = "FP"
)

// NoResponsePerMille calibrates the modelled maintainer non-response rate
// (paper: 111 of 351 reports drew no response ≈ 31.6%).
const NoResponsePerMille = 316

// NewBug is one evaluated detection.
type NewBug struct {
	Planned *corpus.PlannedBug // nil for bait hits
	Report  core.Report
	Status  Status
	Verdict refsim.Verdict
}

// NewBugStudy evaluates checker reports against the corpus ground truth,
// replaying each witness through refsim (§6.2–§6.4, Tables 4 and 5).
type NewBugStudy struct {
	Bugs   []NewBug
	Missed []corpus.PlannedBug
}

// EvaluateNewBugs matches reports to the corpus plan, confirms them
// dynamically, and assigns statuses. workers bounds the batched refsim
// confirmation stage (0 means GOMAXPROCS). Each witness replay is
// independent and pure, so the study is identical at any worker count.
func EvaluateNewBugs(c *corpus.Corpus, reports []core.Report, workers int) *NewBugStudy {
	type key struct{ fn, pattern string }
	byKey := map[key][]core.Report{}
	for _, r := range reports {
		k := key{r.Function, string(r.Pattern)}
		byKey[k] = append(byKey[k], r)
	}
	baited := map[string]bool{}
	for _, b := range c.Baits {
		baited[b.Function] = true
	}

	st := &NewBugStudy{}
	// Pass 1: match planned bugs to reports and batch up the confirmation
	// jobs; the replays fan out across workers, verdicts come back in plan
	// order.
	type matched struct {
		pb *corpus.PlannedBug
		r  core.Report
	}
	var ms []matched
	var jobs []refsim.Job
	for i := range c.Planned {
		pb := &c.Planned[i]
		rs := byKey[key{pb.Function, string(pb.Pattern)}]
		if len(rs) == 0 {
			st.Missed = append(st.Missed, *pb)
			continue
		}
		r := rs[0]
		ms = append(ms, matched{pb: pb, r: r})
		jobs = append(jobs, refsim.Job{
			Witness: r.Witness,
			Claim: refsim.Claim{
				Impact: pb.Impact, Object: r.Object,
				AllowEscaped: r.Pattern == core.P6,
			},
		})
	}
	verdicts := refsim.ReplayAll(jobs, workers, nil)
	// Pass 2: assign statuses from the verdicts, in plan order.
	for i, m := range ms {
		verdict := verdicts[i]
		nb := NewBug{Planned: m.pb, Report: m.r, Verdict: verdict}
		switch {
		case !verdict.Confirmed && m.pb.Kind == corpus.KindPinnedUAD:
			nb.Status = PR
		case !verdict.Confirmed:
			nb.Status = NR // cannot demonstrate the impact: no reply
		case noResponse(m.pb.Function):
			nb.Status = NR
		default:
			nb.Status = CFM
		}
		st.Bugs = append(st.Bugs, nb)
	}
	// Bait hits become false positives (one per bait function).
	seenBait := map[string]bool{}
	for _, r := range reports {
		if !baited[r.Function] || seenBait[r.Function] {
			continue
		}
		seenBait[r.Function] = true
		st.Bugs = append(st.Bugs, NewBug{Report: r, Status: FP})
	}
	return st
}

// noResponse deterministically models maintainer silence.
func noResponse(fn string) bool {
	h := fnv.New32a()
	h.Write([]byte(fn))
	return h.Sum32()%1000 < NoResponsePerMille
}

// --- Table 4 ---

// Table4Row aggregates one subsystem.
type Table4Row struct {
	Subsystem string
	NewBugs   int
	Leak      int
	UAF       int
	NPD       int
	CFM       int
	PR        int
	NR        int
	FP        int
}

// Table4 builds the per-subsystem summary (false positives are listed but,
// as in the paper, not counted into NewBugs).
func (st *NewBugStudy) Table4() []Table4Row {
	rows := map[string]*Table4Row{}
	get := func(sub string) *Table4Row {
		if r, ok := rows[sub]; ok {
			return r
		}
		r := &Table4Row{Subsystem: sub}
		rows[sub] = r
		return r
	}
	for _, nb := range st.Bugs {
		if nb.Status == FP {
			get(nb.Report.Subsystem()).FP++
			continue
		}
		row := get(nb.Planned.Subsystem)
		row.NewBugs++
		switch nb.Planned.Impact {
		case "Leak":
			row.Leak++
		case "UAF":
			row.UAF++
		case "NPD":
			row.NPD++
		}
		switch nb.Status {
		case CFM:
			row.CFM++
		case PR:
			row.PR++
		case NR:
			row.NR++
		}
	}
	var out []Table4Row
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subsystem < out[j].Subsystem })
	return out
}

// Total sums Table 4 rows.
func Total(rows []Table4Row) Table4Row {
	t := Table4Row{Subsystem: "Total"}
	for _, r := range rows {
		t.NewBugs += r.NewBugs
		t.Leak += r.Leak
		t.UAF += r.UAF
		t.NPD += r.NPD
		t.CFM += r.CFM
		t.PR += r.PR
		t.NR += r.NR
		t.FP += r.FP
	}
	return t
}

// --- Table 5 ---

// APICount is one bug-caused API with its frequency.
type APICount struct {
	API   string
	Count int
}

// Table5Row details one module.
type Table5Row struct {
	Subsystem string
	Module    string
	TopAPIs   []APICount // descending, capped at 2 as in the paper
	Patterns  map[core.Pattern]int
	Bugs      int
	Confirmed int
	Rejected  int
	NoReply   int
}

// Table5 builds the per-module detail table.
func (st *NewBugStudy) Table5() []Table5Row {
	type mkey struct{ sub, mod string }
	rows := map[mkey]*Table5Row{}
	for _, nb := range st.Bugs {
		if nb.Status == FP {
			continue
		}
		k := mkey{nb.Planned.Subsystem, nb.Planned.Module}
		row := rows[k]
		if row == nil {
			row = &Table5Row{
				Subsystem: k.sub, Module: k.mod,
				Patterns: map[core.Pattern]int{},
			}
			rows[k] = row
		}
		row.Bugs++
		row.Patterns[nb.Report.Pattern]++
		switch nb.Status {
		case CFM:
			row.Confirmed++
		case PR:
			row.Rejected++
		case NR:
			row.NoReply++
		}
		apiIdx := -1
		for i, ac := range row.TopAPIs {
			if ac.API == nb.Planned.API {
				apiIdx = i
			}
		}
		if apiIdx >= 0 {
			row.TopAPIs[apiIdx].Count++
		} else {
			row.TopAPIs = append(row.TopAPIs, APICount{API: nb.Planned.API, Count: 1})
		}
	}
	var out []Table5Row
	for _, r := range rows {
		sort.Slice(r.TopAPIs, func(i, j int) bool {
			if r.TopAPIs[i].Count != r.TopAPIs[j].Count {
				return r.TopAPIs[i].Count > r.TopAPIs[j].Count
			}
			return r.TopAPIs[i].API < r.TopAPIs[j].API
		})
		if len(r.TopAPIs) > 2 {
			r.TopAPIs = r.TopAPIs[:2]
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subsystem != out[j].Subsystem {
			return out[i].Subsystem < out[j].Subsystem
		}
		return out[i].Module < out[j].Module
	})
	return out
}

// --- §7: Lessons From New Bugs ---

// Lessons aggregates the evaluated new bugs by the paper's four root-cause
// families (§7): implementation deviation (P1+P2), hidden refcounting
// (P3+P4), overlooked locations (P5+P6+P7), and future risks (P8+P9).
type Lessons struct {
	Deviation  int // P1 return-error + P2 return-NULL
	ReturnNull int // the P2 subset
	SmartLoop  int // P3 (hidden, complete)
	HiddenAPI  int // P4 (hidden inc/dec)
	MissingInc int // P4's missing-increase (UAF) subset
	ErrorPath  int // P5
	InterPair  int // P6
	DirectFree int // P7
	UAD        int // P8
	Escape     int // P9
}

// LessonSummary computes the §7 breakdown from the evaluated bugs.
func (st *NewBugStudy) LessonSummary() Lessons {
	var l Lessons
	for _, nb := range st.Bugs {
		if nb.Status == FP || nb.Planned == nil {
			continue
		}
		switch nb.Report.Pattern {
		case core.P1:
			l.Deviation++
		case core.P2:
			l.Deviation++
			l.ReturnNull++
		case core.P3:
			l.SmartLoop++
		case core.P4:
			l.HiddenAPI++
			if nb.Planned.Kind == corpus.KindMissingGet {
				l.MissingInc++
			}
		case core.P5:
			l.ErrorPath++
		case core.P6:
			l.InterPair++
		case core.P7:
			l.DirectFree++
		case core.P8:
			l.UAD++
		case core.P9:
			l.Escape++
		}
	}
	return l
}
