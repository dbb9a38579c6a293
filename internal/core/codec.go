package core

import (
	"sort"

	"repro/internal/bincodec"
	"repro/internal/semantics"
)

// Binary codecs for the report payloads: the unit-level cache entry
// (unitEntry: the run summary plus the pre-confirmation report list), the
// per-file report entry and round 2's cells (both encodeReportsEntry).
// Every payload is table-deduplicated (bincodec.Tabled): a report's strings
// — function, file, object, API, message, suggestion — and its witness
// events' strings repeat across the payload's reports, so each is written
// once in the table and referenced by uvarint id. Witness events are
// stored blocks-stripped (stripWitnessBlocks runs before Put), so the shared
// event codec applies directly. The impact enum is validated on decode;
// anything out of range degrades the entry to a counted corrupt miss.

// unitFormat versions the unit entry encoding; bump on any layout change.
const unitFormat = 2

func encodeReport(w *bincodec.Writer, t *bincodec.Table, r *Report) {
	w.Ref(t, string(r.Pattern))
	w.U8(uint8(r.Impact))
	w.Ref(t, r.Function)
	w.Ref(t, r.File)
	semantics.EncodePos(w, t, r.Pos)
	w.Ref(t, r.Object)
	w.Ref(t, r.API)
	w.Ref(t, r.Message)
	w.Ref(t, r.Suggestion)
	semantics.EncodeEvents(w, t, r.Witness)
	w.Bool(r.Confirmed)
	w.Ref(t, string(r.Deferred))
}

func decodeReport(r *bincodec.Reader) Report {
	rep := Report{
		Pattern:    Pattern(r.Ref()),
		Impact:     Impact(r.U8()),
		Function:   r.Ref(),
		File:       r.Ref(),
		Pos:        semantics.DecodePos(r),
		Object:     r.Ref(),
		API:        r.Ref(),
		Message:    r.Ref(),
		Suggestion: r.Ref(),
		Witness:    semantics.DecodeEvents(r),
		Confirmed:  r.Bool(),
		Deferred:   DeferralReason(r.Ref()),
	}
	if rep.Impact > NPD {
		r.Fail()
	}
	return rep
}

// reportsCap is a writer presize for n reports: the body of a typical
// report with its witness, ids and uvarints included.
func reportsCap(n int) int { return 64 + 256*n }

func encodeUnitEntry(ent *unitEntry) []byte {
	var t bincodec.Table
	w := bincodec.NewWriter(reportsCap(len(ent.Reports)))
	w.Uvarint(uint64(ent.Summary.Files))
	w.Uvarint(uint64(ent.Summary.Functions))
	w.Uvarint(uint64(ent.Summary.DiscoveredStructs))
	w.Uvarint(uint64(ent.Summary.DiscoveredAPIs))
	w.Uvarint(uint64(ent.Summary.DiscoveredLoops))
	w.Uvarint(uint64(ent.Summary.DiscoveredDeviations))
	w.Uvarint(uint64(len(ent.Reports)))
	for i := range ent.Reports {
		encodeReport(w, &t, &ent.Reports[i])
	}
	return bincodec.Tabled(unitFormat, &t, w)
}

func decodeUnitEntry(data []byte, ent *unitEntry) error {
	r := bincodec.OpenTabled(data, unitFormat)
	ent.Summary = UnitSummary{
		Files:                int(r.Uvarint()),
		Functions:            int(r.Uvarint()),
		DiscoveredStructs:    int(r.Uvarint()),
		DiscoveredAPIs:       int(r.Uvarint()),
		DiscoveredLoops:      int(r.Uvarint()),
		DiscoveredDeviations: int(r.Uvarint()),
	}
	n := r.UCount()
	for i := 0; i < n; i++ {
		rep := decodeReport(r)
		if r.Err() != nil {
			break
		}
		ent.Reports = append(ent.Reports, rep)
	}
	return r.Done()
}

// reportsFormat versions the per-file report entry encoding; bump on any
// layout change.
const reportsFormat = 2

// encodeReportsEntry encodes one file's report entry — function name to
// that function's checker cells — in name order, so equal entries encode
// to equal bytes.
func encodeReportsEntry(ent map[string][][]Report) []byte {
	names := make([]string, 0, len(ent))
	n := 0
	for name, cells := range ent {
		names = append(names, name)
		for _, cell := range cells {
			n += len(cell)
		}
	}
	sort.Strings(names)
	var t bincodec.Table
	w := bincodec.NewWriter(reportsCap(n) + 8*len(ent))
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Ref(&t, name)
		cells := ent[name]
		w.Uvarint(uint64(len(cells)))
		for _, cell := range cells {
			w.Uvarint(uint64(len(cell)))
			for i := range cell {
				encodeReport(w, &t, &cell[i])
			}
		}
	}
	return bincodec.Tabled(reportsFormat, &t, w)
}

func decodeReportsValue(data []byte) (any, error) {
	r := bincodec.OpenTabled(data, reportsFormat)
	n := r.UCount()
	ent := make(map[string][][]Report, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Ref()
		cells := make([][]Report, r.UCount())
		for ci := range cells {
			m := r.UCount()
			for j := 0; j < m && r.Err() == nil; j++ {
				cells[ci] = append(cells[ci], decodeReport(r))
			}
		}
		ent[name] = cells
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ent, nil
}
