package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNopZeroAllocation is the contract the pipeline's hot paths rely on:
// the disabled observability path allocates nothing, so leaving the calls
// threaded through every stage costs effectively zero.
func TestNopZeroAllocation(t *testing.T) {
	tr := Nop()
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root()
		sp := root.Child("tu").Str("path", "a.c").Int("tokens", 42)
		sp.Reg().Add("frontend.cache.hit", 1)
		sp.Reg().Observe("frontend.tu_ms", 1.5)
		sp.Reg().SetGauge("pipeline.files_per_sec", 10)
		sp.End()
		tr.Done()
	})
	if allocs != 0 {
		t.Fatalf("Nop path allocates %v per op, want 0", allocs)
	}
}

// TestSpanTreeCanonicalOrder: spans created concurrently in arbitrary order
// must render as one deterministic tree — the per-worker buffer merge
// guarantee.
func TestSpanTreeCanonicalOrder(t *testing.T) {
	build := func(shuffle bool) string {
		tr := New("run")
		phase := tr.Root().Child("phase:build")
		var wg sync.WaitGroup
		names := []string{"c.c", "a.c", "b.c", "d.c"}
		if shuffle {
			names = []string{"d.c", "b.c", "a.c", "c.c"}
		}
		for _, n := range names {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				sp := phase.Child("tu").Str("path", n)
				sp.End()
			}(n)
		}
		wg.Wait()
		phase.End()
		tr.Done()
		return Tree(tr)
	}
	a, b := build(false), build(true)
	if a != b {
		t.Fatalf("span trees differ across creation orders:\n%s\nvs\n%s", a, b)
	}
	want := "run\n  phase:build\n    tu{path=a.c}\n    tu{path=b.c}\n    tu{path=c.c}\n    tu{path=d.c}\n"
	if a != want {
		t.Fatalf("tree =\n%s\nwant\n%s", a, want)
	}
}

// TestChromeTraceRoundTrip validates the trace-event JSON schema: the output
// must parse back into complete ("X") events with the fields Perfetto and
// chrome://tracing require, with non-negative microsecond timings and no
// overlapping spans within one lane.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New("roundtrip")
	p1 := tr.Root().Child("phase:build")
	p1.Child("tu").Str("path", "a.c").End()
	p1.Child("tu").Str("path", "b.c").End()
	p1.End()
	tr.Root().Child("phase:check").Int("functions", 3).End()
	tr.Done()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON event array: %v", err)
	}
	if len(events) != 5 { // root + 2 phases + 2 TUs
		t.Fatalf("got %d events, want 5", len(events))
	}
	laneEnd := map[int]float64{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "" || ev.PID == 0 || ev.TID == 0 {
			t.Errorf("event missing required fields: %+v", ev)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q has negative timing: ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
		if end, ok := laneEnd[ev.TID]; ok && ev.TS < end {
			t.Errorf("event %q overlaps previous span in lane %d", ev.Name, ev.TID)
		}
		laneEnd[ev.TID] = ev.TS + ev.Dur
	}
	withArgs := 0
	for _, ev := range events {
		if ev.Args["path"] != "" {
			withArgs++
		}
	}
	if withArgs != 2 {
		t.Errorf("expected 2 events with path args, got %d", withArgs)
	}
}

// TestStatsJSONRoundTrip: the -stats-json payload must parse back and carry
// the registry contents.
func TestStatsJSONRoundTrip(t *testing.T) {
	tr := New("stats")
	tr.Root().Child("phase:build").End()
	tr.Reg().Add("frontend.tokens", 123)
	tr.Reg().SetGauge("pipeline.files_per_sec", 4.5)
	tr.Reg().Observe("frontend.tu_ms", 2)
	tr.Reg().Observe("frontend.tu_ms", 4)
	tr.Done()

	var buf bytes.Buffer
	if err := WriteStatsJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var got StatsJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace != "stats" || got.Counters["frontend.tokens"] != 123 {
		t.Errorf("round-trip lost data: %+v", got)
	}
	if h := got.Hists["frontend.tu_ms"]; h.Count != 2 || h.Sum != 6 || h.Min != 2 || h.Max != 4 {
		t.Errorf("hist round-trip = %+v", h)
	}
	if len(got.Phases) != 1 || got.Phases[0].Name != "phase:build" {
		t.Errorf("phases = %+v", got.Phases)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; -race
// plus exact totals catch both data races and lost updates.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Add("c", 1)
				reg.Observe("h", 1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if h := reg.Hists()["h"]; h.Count != 8000 || h.Sum != 8000 {
		t.Errorf("hist = %+v", h)
	}
}

// TestSummaryAndNopExporters: exporters must not panic on a Nop trace and
// the summary must mention every metric family.
func TestSummaryAndNopExporters(t *testing.T) {
	var buf bytes.Buffer
	WriteSummary(&buf, Nop())
	if buf.Len() != 0 {
		t.Errorf("Nop summary wrote %q", buf.String())
	}
	if err := WriteChromeTrace(&buf, Nop()); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("Nop chrome trace = %q, want []", buf.String())
	}
	if Tree(Nop()) != "" {
		t.Error("Nop tree must be empty")
	}

	tr := New("sum")
	tr.Root().Child("phase:build").End()
	tr.Reg().Add("frontend.tokens", 1)
	tr.Reg().SetGauge("g", 1)
	tr.Reg().Observe("h", 1)
	tr.Done()
	buf.Reset()
	WriteSummary(&buf, tr)
	for _, want := range []string{"phase:build", "counter", "gauge", "hist"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSameNamedPhasesSumToOneRow: a stage that runs twice (the check round
// and the finish both open phase:check) is one row in the summary and in
// Stats, with the spans' summed wall time and descendant count.
func TestSameNamedPhasesSumToOneRow(t *testing.T) {
	tr := New("twice")
	first := tr.Root().Child("phase:check")
	first.Child("fn").End()
	time.Sleep(time.Millisecond)
	first.End()
	tr.Root().Child("phase:build").End()
	second := tr.Root().Child("phase:check")
	second.Child("fn").End()
	second.Child("fn").End()
	time.Sleep(time.Millisecond)
	second.End()
	tr.Done()

	var wantMS float64
	for _, ev := range ChromeEvents(tr) {
		if ev.Name == "phase:check" {
			wantMS += ev.Dur / 1e3
		}
	}
	got := Stats(tr).Phases
	if len(got) != 2 || got[0].Name != "phase:build" || got[1].Name != "phase:check" {
		t.Fatalf("phases = %+v, want one phase:build row and one phase:check row", got)
	}
	if d := got[1].MS - wantMS; d > 1e-6 || d < -1e-6 || wantMS < 2 {
		t.Errorf("phase:check = %.6fms, want the two spans' sum %.6fms", got[1].MS, wantMS)
	}

	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	if n := strings.Count(buf.String(), "phase:check"); n != 1 {
		t.Errorf("summary lists phase:check %d times, want once:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "(3 spans)") {
		t.Errorf("summary's phase:check row must count both spans' 3 children:\n%s", buf.String())
	}
}
