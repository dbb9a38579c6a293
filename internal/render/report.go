package render

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
)

// This file renders checker output the way cmd/refcheck prints it. It exists
// so every consumer of the pipeline — the refcheck CLI and the refcheckd
// analysis server — produces byte-identical bytes for the same run: the
// serving layer's "responses equal CLI output" contract is enforced by
// sharing the formatter, not by keeping two printers in sync by hand.

// FilterPattern returns the reports matching one anti-pattern ID ("P4");
// an empty pattern returns reports unchanged. This is refcheck's -pattern.
func FilterPattern(reports []core.Report, pattern string) []core.Report {
	if pattern == "" {
		return reports
	}
	var filtered []core.Report
	for _, r := range reports {
		if string(r.Pattern) == pattern {
			filtered = append(filtered, r)
		}
	}
	return filtered
}

// WriteReports writes one diagnostic line per report plus its suggestion
// line, exactly as refcheck prints them.
func WriteReports(w io.Writer, reports []core.Report) {
	for _, r := range reports {
		fmt.Fprintln(w, r.String())
		if r.Suggestion != "" {
			fmt.Fprintf(w, "    suggestion: %s\n", strings.ReplaceAll(r.Suggestion, "\n", " "))
		}
	}
}

// WriteSummary writes the trailing per-pattern/per-impact count block and the
// unit summary line, exactly as refcheck prints them.
func WriteSummary(w io.Writer, reports []core.Report, sum core.UnitSummary) {
	perPattern := map[core.Pattern]int{}
	perImpact := map[core.Impact]int{}
	for _, r := range reports {
		perPattern[r.Pattern]++
		perImpact[r.Impact]++
	}
	var pats []string
	for p := range perPattern {
		pats = append(pats, string(p))
	}
	sort.Strings(pats)
	fmt.Fprintf(w, "\n%d reports", len(reports))
	if len(pats) > 0 {
		fmt.Fprint(w, " (")
		for i, p := range pats {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s:%d", p, perPattern[core.Pattern(p)])
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintf(w, " — Leak %d, UAF %d, NPD %d\n",
		perImpact[core.Leak], perImpact[core.UAF], perImpact[core.NPD])
	fmt.Fprintf(w, "analyzed %d files, %d functions (discovered: %d structs, %d APIs, %d smartloops)\n",
		sum.Files, sum.Functions,
		sum.DiscoveredStructs, sum.DiscoveredAPIs, sum.DiscoveredLoops)
}

// Output writes a run's reports the way refcheck prints them: filtered by
// pattern (see FilterPattern), then either the JSON array or the report
// listing followed by the summary block. n is the number of reports written.
func Output(w io.Writer, reports []core.Report, sum core.UnitSummary, pattern string, asJSON bool) (n int, err error) {
	reports = FilterPattern(reports, pattern)
	if asJSON {
		return len(reports), WriteJSON(w, reports)
	}
	WriteReports(w, reports)
	WriteSummary(w, reports, sum)
	return len(reports), nil
}

// jsonReport is the -json element shape. The field set (and its order) is
// part of the CLI's output contract.
type jsonReport struct {
	Pattern, Impact, File, Function, Object, API string
	Line                                         int
	Message, Suggestion                          string
}

// WriteJSON writes the reports as the indented JSON array refcheck -json
// prints (the JSON mode emits no summary block).
func WriteJSON(w io.Writer, reports []core.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	out := make([]jsonReport, 0, len(reports))
	for _, r := range reports {
		out = append(out, jsonReport{
			Pattern: string(r.Pattern), Impact: r.Impact.String(),
			File: r.File, Function: r.Function, Object: r.Object,
			API: r.API, Line: r.Pos.Line,
			Message: r.Message, Suggestion: r.Suggestion,
		})
	}
	return enc.Encode(out)
}
