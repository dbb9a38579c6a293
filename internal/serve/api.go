package serve

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/cpg"
)

// This file defines the /v1/analyze wire schema. The response's Output field
// carries the exact bytes the refcheck CLI would print to stdout for the
// same inputs and flags — the server and the CLI share one formatter
// (internal/render), so the byte-identity contract is structural, and the
// difftest determinism machinery (identical reports at any worker count and
// cache state) extends to the served path unchanged.

// SourceFile is one translation unit or header in an analyze request.
type SourceFile struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

// AnalyzeRequest is the POST /v1/analyze body. Exactly one input form is
// used: Demo (the built-in synthetic kernel corpus, mirroring
// `refcheck -demo -seed N`) or explicit Sources+Headers.
type AnalyzeRequest struct {
	// Demo analyzes the generated corpus instead of explicit sources.
	Demo bool `json:"demo,omitempty"`
	// Seed selects the demo corpus seed; 0 means 1, the CLI default.
	Seed int64 `json:"seed,omitempty"`

	// Sources are the translation units to analyze.
	Sources []SourceFile `json:"sources,omitempty"`
	// Headers maps include paths to content.
	Headers map[string]string `json:"headers,omitempty"`

	// Workers is the per-request parallelism knob (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Checkers is a comma-separated checker subset ("P1,P4"); empty runs
	// every registered checker.
	Checkers string `json:"checkers,omitempty"`
	// Pattern filters the rendered output to one anti-pattern, like
	// refcheck -pattern.
	Pattern string `json:"pattern,omitempty"`
	// Confirm replays witnesses through refsim, like refcheck would with
	// confirmation enabled.
	Confirm bool `json:"confirm,omitempty"`
	// JSON renders Output as the refcheck -json report array instead of the
	// default text listing.
	JSON bool `json:"json,omitempty"`

	// TimeoutMS is the per-request deadline in milliseconds; 0 uses the
	// server default, and the server-wide maximum always caps it. On expiry
	// the run is cancelled at the next pipeline boundary, nothing partial is
	// cached, and the request fails with 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// sources materializes the request's input set.
func (req *AnalyzeRequest) sources() ([]cpg.Source, map[string]string, error) {
	if req.Demo {
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		c := corpus.Generate(corpus.Spec{Seed: seed})
		var sources []cpg.Source
		headers := map[string]string{}
		for _, f := range c.Files {
			sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
		}
		for p, s := range c.Headers {
			headers[p] = s
		}
		return sources, headers, nil
	}
	if len(req.Sources) == 0 {
		return nil, nil, fmt.Errorf("request has no sources (set demo or sources)")
	}
	sources := make([]cpg.Source, 0, len(req.Sources))
	for _, s := range req.Sources {
		if s.Path == "" {
			return nil, nil, fmt.Errorf("source with empty path")
		}
		sources = append(sources, cpg.Source{Path: s.Path, Content: s.Content})
	}
	headers := map[string]string{}
	for p, s := range req.Headers {
		headers[p] = s
	}
	return sources, headers, nil
}

// timeout resolves the request's effective deadline against the server
// bounds; 0 means no deadline.
func (req *AnalyzeRequest) timeout(def, max time.Duration) time.Duration {
	d := def
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// AnalyzeResponse is the POST /v1/analyze success body.
type AnalyzeResponse struct {
	// ID names the run; GET /trace/{id} exports its Chrome trace while it
	// remains in the server's recent-run ring.
	ID string `json:"id"`
	// Output is byte-identical to refcheck's stdout for the same inputs.
	Output string `json:"output"`
	// Reports counts the (filtered) reports rendered into Output.
	Reports int `json:"reports"`
	// WallMS is the server-side wall time of the run.
	WallMS float64 `json:"wall_ms"`
	// Metrics are the run's observability counters (cache.unit.hit,
	// frontend.cache.miss, reports.*, ... — the Run.Metric catalog).
	Metrics map[string]int64 `json:"metrics"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
