package render

import (
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
	w.Write(appendReports(nil, reports))
}

// appendReports appends the report listing WriteReports writes.
func appendReports(dst []byte, reports []core.Report) []byte {
	for i := range reports {
		r := &reports[i]
		dst = append(dst, r.String()...)
		dst = append(dst, '\n')
		if r.Suggestion != "" {
			dst = append(dst, "    suggestion: "...)
			dst = append(dst, strings.ReplaceAll(r.Suggestion, "\n", " ")...)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// WriteSummary writes the trailing per-pattern/per-impact count block and the
// unit summary line, exactly as refcheck prints them.
func WriteSummary(w io.Writer, reports []core.Report, sum core.UnitSummary) {
	w.Write(appendSummary(nil, reports, sum))
}

// appendSummary appends the summary block WriteSummary writes.
func appendSummary(dst []byte, reports []core.Report, sum core.UnitSummary) []byte {
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
	dst = fmt.Appendf(dst, "\n%d reports", len(reports))
	if len(pats) > 0 {
		dst = append(dst, " ("...)
		for i, p := range pats {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = fmt.Appendf(dst, "%s:%d", p, perPattern[core.Pattern(p)])
		}
		dst = append(dst, ')')
	}
	dst = fmt.Appendf(dst, " — Leak %d, UAF %d, NPD %d\n",
		perImpact[core.Leak], perImpact[core.UAF], perImpact[core.NPD])
	return fmt.Appendf(dst, "analyzed %d files, %d functions (discovered: %d structs, %d APIs, %d smartloops)\n",
		sum.Files, sum.Functions,
		sum.DiscoveredStructs, sum.DiscoveredAPIs, sum.DiscoveredLoops)
}

// Output writes a run's reports the way refcheck prints them (see
// AppendOutput) in one Write. n is the number of reports written.
func Output(w io.Writer, reports []core.Report, sum core.UnitSummary, pattern string, asJSON bool) (n int, err error) {
	out, n := AppendOutput(nil, reports, sum, pattern, asJSON)
	_, err = w.Write(out)
	return n, err
}

// AppendOutput appends a run's reports the way refcheck prints them:
// filtered by pattern (see FilterPattern), then either the JSON array or
// the report listing followed by the summary block. n is the number of
// reports rendered.
func AppendOutput(dst []byte, reports []core.Report, sum core.UnitSummary, pattern string, asJSON bool) (out []byte, n int) {
	reports = FilterPattern(reports, pattern)
	if asJSON {
		return AppendJSON(dst, reports), len(reports)
	}
	dst = appendReports(dst, reports)
	return appendSummary(dst, reports, sum), len(reports)
}

// WriteJSON writes the reports as the indented JSON array refcheck -json
// prints (see AppendJSON), in one Write.
func WriteJSON(w io.Writer, reports []core.Report) error {
	_, err := w.Write(AppendJSON(nil, reports))
	return err
}
