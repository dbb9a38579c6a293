package core

import (
	"sort"

	"repro/internal/bincodec"
	"repro/internal/semantics"
)

// Binary codec for the unit-level cache entry (unitEntry): the run summary
// plus the pre-confirmation report list. Witness events are stored
// blocks-stripped (stripWitnessBlocks runs before Put), so the shared event
// codec applies directly. The impact enum is validated on decode; anything
// out of range degrades the entry to a counted corrupt miss.

// unitFormat versions the unit entry encoding; bump on any layout change.
const unitFormat = 1

func encodeReport(w *bincodec.Writer, r *Report) {
	w.String(string(r.Pattern))
	w.U8(uint8(r.Impact))
	w.String(r.Function)
	w.String(r.File)
	semantics.EncodePos(w, r.Pos)
	w.String(r.Object)
	w.String(r.API)
	w.String(r.Message)
	w.String(r.Suggestion)
	semantics.EncodeEvents(w, r.Witness)
	w.Bool(r.Confirmed)
	w.String(string(r.Deferred))
}

func decodeReport(r *bincodec.Reader) Report {
	rep := Report{
		Pattern:    Pattern(r.String()),
		Impact:     Impact(r.U8()),
		Function:   r.String(),
		File:       r.String(),
		Pos:        semantics.DecodePos(r),
		Object:     r.String(),
		API:        r.String(),
		Message:    r.String(),
		Suggestion: r.String(),
		Witness:    semantics.DecodeEvents(r),
		Confirmed:  r.Bool(),
		Deferred:   DeferralReason(r.String()),
	}
	if rep.Impact > NPD {
		r.Fail()
	}
	return rep
}

func encodeUnitEntry(ent *unitEntry) []byte {
	w := bincodec.NewWriter(1 << 10)
	w.U8(unitFormat)
	w.Int(ent.Summary.Files)
	w.Int(ent.Summary.Functions)
	w.Int(ent.Summary.DiscoveredStructs)
	w.Int(ent.Summary.DiscoveredAPIs)
	w.Int(ent.Summary.DiscoveredLoops)
	w.Int(ent.Summary.DiscoveredDeviations)
	w.U32(uint32(len(ent.Reports)))
	for i := range ent.Reports {
		encodeReport(w, &ent.Reports[i])
	}
	return w.Bytes()
}

func decodeUnitEntry(data []byte, ent *unitEntry) error {
	r := bincodec.NewReader(data)
	if r.U8() != unitFormat {
		r.Fail()
		return r.Err()
	}
	ent.Summary = UnitSummary{
		Files:                r.Int(),
		Functions:            r.Int(),
		DiscoveredStructs:    r.Int(),
		DiscoveredAPIs:       r.Int(),
		DiscoveredLoops:      r.Int(),
		DiscoveredDeviations: r.Int(),
	}
	n := r.Count()
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
const reportsFormat = 1

// encodeReportsEntry encodes one file's report entry — function name to
// that function's checker cells — in name order, so equal entries encode
// to equal bytes.
func encodeReportsEntry(ent map[string][][]Report) []byte {
	names := make([]string, 0, len(ent))
	for name := range ent {
		names = append(names, name)
	}
	sort.Strings(names)
	w := bincodec.NewWriter(1 << 9)
	w.U8(reportsFormat)
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
		cells := ent[name]
		w.U32(uint32(len(cells)))
		for _, cell := range cells {
			w.U32(uint32(len(cell)))
			for i := range cell {
				encodeReport(w, &cell[i])
			}
		}
	}
	return w.Bytes()
}

func decodeReportsValue(data []byte) (any, error) {
	r := bincodec.NewReader(data)
	if r.U8() != reportsFormat {
		r.Fail()
		return nil, r.Err()
	}
	n := r.Count()
	ent := make(map[string][][]Report, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		cells := make([][]Report, r.Count())
		for ci := range cells {
			m := r.Count()
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
