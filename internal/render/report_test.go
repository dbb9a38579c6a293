package render

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/clex"
	"repro/internal/core"
)

func sampleReports() []core.Report {
	return []core.Report{
		{
			Pattern: core.P1, Impact: core.Leak, Function: "alpha",
			File: "drivers/a.c", Pos: clex.Pos{File: "drivers/a.c", Line: 10},
			Object: "dev", API: "kobject_get", Message: "missing put on error path",
			Suggestion: "kobject_put(dev);",
		},
		{
			Pattern: core.P8, Impact: core.UAF, Function: "beta",
			File: "net/b.c", Pos: clex.Pos{File: "net/b.c", Line: 42},
			Object: "sk", API: "sock_put", Message: "use after decrease",
		},
	}
}

func TestWriteTextShape(t *testing.T) {
	var b strings.Builder
	n, err := Output(&b, sampleReports(), core.UnitSummary{
		Files: 2, Functions: 2, DiscoveredStructs: 1, DiscoveredAPIs: 3, DiscoveredLoops: 0,
	}, "", false)
	if err != nil || n != 2 {
		t.Fatalf("Output = %d, %v; want 2, nil", n, err)
	}
	out := b.String()
	for _, want := range []string{
		"    suggestion: kobject_put(dev);\n",
		"\n2 reports (P1:1, P8:1) — Leak 1, UAF 1, NPD 0\n",
		"analyzed 2 files, 2 functions (discovered: 1 structs, 3 APIs, 0 smartloops)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Output missing %q:\n%s", want, out)
		}
	}
	// The per-report diagnostic lines must be the reports' own String form.
	r := sampleReports()[0]
	if !strings.Contains(out, r.String()+"\n") {
		t.Errorf("Output missing report line %q", r.String())
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var b strings.Builder
	if n, err := Output(&b, nil, core.UnitSummary{}, "", false); err != nil || n != 0 {
		t.Fatalf("Output = %d, %v; want 0, nil", n, err)
	}
	want := "\n0 reports — Leak 0, UAF 0, NPD 0\n" +
		"analyzed 0 files, 0 functions (discovered: 0 structs, 0 APIs, 0 smartloops)\n"
	if b.String() != want {
		t.Errorf("empty render:\n got %q\nwant %q", b.String(), want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, sampleReports()); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Pattern, Impact, File, Function, Object, API string
		Line                                         int
		Message, Suggestion                          string
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(got) != 2 || got[0].Pattern != "P1" || got[0].Line != 10 || got[1].Impact != "UAF" {
		t.Errorf("unexpected decoded reports: %+v", got)
	}
	// An empty report list must encode as [], not null — the CLI has always
	// allocated the slice before encoding.
	b.Reset()
	if err := WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Errorf("empty list encodes as %q, want []", b.String())
	}
}

func TestFilterPattern(t *testing.T) {
	rs := sampleReports()
	if got := FilterPattern(rs, ""); len(got) != 2 {
		t.Errorf("empty filter: got %d reports", len(got))
	}
	got := FilterPattern(rs, "P8")
	if len(got) != 1 || got[0].Function != "beta" {
		t.Errorf("P8 filter: got %+v", got)
	}
	if got := FilterPattern(rs, "P5"); len(got) != 0 {
		t.Errorf("P5 filter: got %d reports, want 0", len(got))
	}
}

// TestOutputModes pins Output to the CLI's sequence: filter by pattern, then
// the JSON array alone, or the listing followed by the summary of the
// filtered reports.
func TestOutputModes(t *testing.T) {
	sum := core.UnitSummary{Files: 2, Functions: 2}
	for _, tc := range []struct {
		pattern string
		json    bool
		wantN   int
	}{
		{"", false, 2},
		{"", true, 2},
		{"P8", false, 1},
		{"P8", true, 1},
		{"P5", false, 0},
		{"P5", true, 0},
	} {
		filtered := FilterPattern(sampleReports(), tc.pattern)
		var want strings.Builder
		if tc.json {
			if err := WriteJSON(&want, filtered); err != nil {
				t.Fatal(err)
			}
		} else {
			WriteReports(&want, filtered)
			WriteSummary(&want, filtered, sum)
		}
		var got strings.Builder
		n, err := Output(&got, sampleReports(), sum, tc.pattern, tc.json)
		if err != nil || n != tc.wantN {
			t.Errorf("pattern=%q json=%v: Output = %d, %v; want %d, nil", tc.pattern, tc.json, n, err, tc.wantN)
		}
		if got.String() != want.String() {
			t.Errorf("pattern=%q json=%v:\n got %q\nwant %q", tc.pattern, tc.json, got.String(), want.String())
		}
	}
}

// jsonReport is the record refcheck -json used to marshal through
// encoding/json; the fuzz target keeps it as AppendJSON's reference.
type jsonReport struct {
	Pattern, Impact, File, Function, Object, API string
	Line                                         int
	Message, Suggestion                          string
}

// referenceJSON is what WriteJSON wrote before it appended directly:
// json.Encoder with SetIndent("", "  ") over []jsonReport.
func referenceJSON(t *testing.T, reports []core.Report) []byte {
	t.Helper()
	out := make([]jsonReport, 0, len(reports))
	for _, r := range reports {
		out = append(out, jsonReport{
			Pattern: string(r.Pattern), Impact: r.Impact.String(),
			File: r.File, Function: r.Function, Object: r.Object,
			API: r.API, Line: r.Pos.Line,
			Message: r.Message, Suggestion: r.Suggestion,
		})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	for _, rs := range [][]core.Report{nil, {}, sampleReports()[:1], sampleReports()} {
		want := referenceJSON(t, rs)
		if got := AppendJSON(nil, rs); !bytes.Equal(got, want) {
			t.Errorf("%d reports:\n got %q\nwant %q", len(rs), got, want)
		}
		// Appending keeps what dst already holds.
		if got := AppendJSON([]byte("x"), rs); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("%d reports: AppendJSON dropped the prefix: %q", len(rs), got)
		}
	}
}

// FuzzAppendJSON holds AppendJSON to encoding/json byte for byte over
// arbitrary report strings and lines: HTML escaping, control bytes,
// invalid UTF-8 and the JavaScript line separators included.
func FuzzAppendJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern, file, function, object, api string, line int, message, suggestion string, impact uint8) {
		r := core.Report{
			Pattern: core.Pattern(pattern), Impact: core.Impact(impact % 3), File: file,
			Function: function, Pos: clex.Pos{File: file, Line: line},
			Object: object, API: api, Message: message, Suggestion: suggestion,
		}
		// A second report with the strings rotated exercises the
		// separators between objects.
		r2 := core.Report{
			Pattern: core.Pattern(suggestion), Impact: core.Impact((impact + 1) % 3), File: message,
			Function: api, Pos: clex.Pos{Line: -line}, Object: function, API: file,
			Message: pattern, Suggestion: object,
		}
		for _, rs := range [][]core.Report{{r}, {r, r2}} {
			if got, want := AppendJSON(nil, rs), referenceJSON(t, rs); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON differs from encoding/json:\n got %q\nwant %q", got, want)
			}
		}
	})
}
