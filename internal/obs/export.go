package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file holds the three exporters:
//
//   - Tree / WriteSummary: human-readable — a canonical span tree (structure
//     only, deterministic) and a -v summary table (phases + metrics).
//   - WriteStatsJSON: machine-readable metrics (the CLIs' -stats-json).
//   - WriteChromeTrace: Chrome trace-event JSON ("X" complete events),
//     loadable in chrome://tracing and Perfetto.

// attrKey canonicalizes a span's attributes for deterministic sibling
// ordering and tree rendering.
func attrKey(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Val
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// childIndex groups a snapshot by parent id with siblings in canonical
// (name, attrs) order — the deterministic merge of per-worker span buffers.
func childIndex(spans []spanSnap) map[int64][]spanSnap {
	byParent := map[int64][]spanSnap{}
	for _, s := range spans {
		byParent[s.parent] = append(byParent[s.parent], s)
	}
	for _, kids := range byParent {
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].name != kids[j].name {
				return kids[i].name < kids[j].name
			}
			ai, aj := attrKey(kids[i].attrs), attrKey(kids[j].attrs)
			if ai != aj {
				return ai < aj
			}
			return kids[i].start < kids[j].start
		})
	}
	return byParent
}

// Tree renders the span tree's structure — names and attributes, no timings
// or ids — in canonical order. Two runs that performed the same work render
// identical trees regardless of worker count or span arrival order; the
// difftest suite asserts exactly that.
func Tree(t *Trace) string {
	spans := t.snapshot()
	if len(spans) == 0 {
		return ""
	}
	byParent := childIndex(spans)
	var b strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, s := range byParent[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(s.name)
			if k := attrKey(s.attrs); k != "" {
				b.WriteString("{" + k + "}")
			}
			b.WriteByte('\n')
			walk(s.id, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// phaseRow is one phase name's share of a trace: the summed wall time and
// descendant span count of every span of that name directly under the root
// (a stage can run more than once, as the check round and the finish both
// run phase:check, and the manager runs phase:manager once per round).
type phaseRow struct {
	name  string
	dur   time.Duration
	spans int
}

// phases returns the trace's phase rows in name order, one per name.
func phases(t *Trace) []phaseRow {
	spans := t.snapshot()
	byParent := childIndex(spans)
	var rootID int64
	for _, s := range spans {
		if s.parent == 0 {
			rootID = s.id
			break
		}
	}
	var rows []phaseRow
	// childIndex sorts siblings by name, so same-named phases are adjacent.
	for _, ph := range byParent[rootID] {
		if n := len(rows); n == 0 || rows[n-1].name != ph.name {
			rows = append(rows, phaseRow{name: ph.name})
		}
		r := &rows[len(rows)-1]
		r.dur += ph.dur
		r.spans += countDescendants(byParent, ph.id)
	}
	return rows
}

// WriteSummary prints the human -v table: one row per phase name directly
// under the root with its summed wall time, then every counter, gauge, and
// histogram in sorted name order.
func WriteSummary(w io.Writer, t *Trace) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "%s: wall %v\n", t.Name(), t.Wall().Round(time.Microsecond))
	for _, ph := range phases(t) {
		fmt.Fprintf(w, "  phase %-18s %10.3fms (%d spans)\n",
			ph.name, float64(ph.dur)/1e6, ph.spans)
	}
	reg := t.Reg()
	counters := reg.Counters()
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  counter %-28s %d\n", n, counters[n])
	}
	gauges := reg.Gauges()
	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  gauge   %-28s %.3f\n", n, gauges[n])
	}
	hists := reg.Hists()
	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		avg := 0.0
		if h.Count > 0 {
			avg = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(w, "  hist    %-28s n=%d avg=%.3f min=%.3f max=%.3f\n",
			n, h.Count, avg, h.Min, h.Max)
	}
}

func countDescendants(byParent map[int64][]spanSnap, id int64) int {
	n := 0
	for _, c := range byParent[id] {
		n += 1 + countDescendants(byParent, c.id)
	}
	return n
}

// StatsJSON is the -stats-json payload shape.
type StatsJSON struct {
	Trace    string              `json:"trace"`
	WallMS   float64             `json:"wall_ms"`
	Phases   []PhaseStat         `json:"phases"`
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]float64  `json:"gauges"`
	Hists    map[string]HistStat `json:"histograms"`
}

// PhaseStat is one top-level phase name's summed wall time.
type PhaseStat struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// Stats assembles the machine-readable metrics snapshot.
func Stats(t *Trace) StatsJSON {
	out := StatsJSON{
		Trace:    t.Name(),
		WallMS:   float64(t.Wall()) / 1e6,
		Counters: t.Reg().Counters(),
		Gauges:   t.Reg().Gauges(),
		Hists:    t.Reg().Hists(),
	}
	if out.Counters == nil {
		out.Counters = map[string]int64{}
	}
	if out.Gauges == nil {
		out.Gauges = map[string]float64{}
	}
	if out.Hists == nil {
		out.Hists = map[string]HistStat{}
	}
	for _, ph := range phases(t) {
		out.Phases = append(out.Phases, PhaseStat{Name: ph.name, MS: float64(ph.dur) / 1e6})
	}
	return out
}

// WriteStatsJSON writes the metrics snapshot as indented JSON.
func WriteStatsJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Stats(t))
}

// ChromeEvent is one Chrome trace-event ("X" complete event). The format is
// the JSON array flavor of the trace-event spec, accepted by
// chrome://tracing and Perfetto.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds since trace start
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeEvents converts the span set to trace events. Spans are laid out on
// greedy non-overlapping lanes (tids) so concurrent work renders side by
// side instead of stacked into a fake call tree.
func ChromeEvents(t *Trace) []ChromeEvent {
	spans := t.snapshot()
	if len(spans) == 0 {
		return []ChromeEvent{}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
	var laneEnd []time.Duration
	events := make([]ChromeEvent, 0, len(spans))
	for _, s := range spans {
		lane := -1
		for li, end := range laneEnd {
			if end <= s.start {
				lane = li
				break
			}
		}
		if lane == -1 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.start + s.dur
		ev := ChromeEvent{
			Name: s.name, Cat: t.Name(), Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3,
			PID: 1, TID: lane + 1,
		}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		events = append(events, ev)
	}
	return events
}

// WriteChromeTrace writes the span set as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeEvents(t))
}
