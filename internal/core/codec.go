package core

import (
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"

	"repro/internal/analysiscache"
	"repro/internal/bincodec"
	"repro/internal/semantics"
)

// Binary codecs for the report payloads: the unit entry's manifest (the
// run summary plus its segments' keys), a file's segment (its finalized,
// pre-confirmation report list), the per-file report entry and round 2's
// cells (both encodeReportsEntry). Every report payload is
// table-deduplicated (bincodec.Tabled): a report's strings — function,
// file, object, API, message, suggestion — and its witness events' strings
// repeat across the payload's reports, so each is written once in the
// table and referenced by uvarint id. Witness events are stored
// blocks-stripped (stripBlocks runs before Put), so the shared event codec
// applies directly. The impact enum is validated on decode; anything out
// of range degrades the entry to a counted corrupt miss.

// manifestFormat and segmentFormat version the unit entry's two payloads;
// bump on any layout change.
const (
	manifestFormat = 3
	segmentFormat  = 1
)

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

// encodeManifest encodes a unit entry's manifest: the summary, then each
// segment's key (a KeyOf digest) as its 32 bytes.
func encodeManifest(sum UnitSummary, keys []string) []byte {
	w := bincodec.NewWriter(16 + 32*len(keys))
	w.U8(manifestFormat)
	w.Uvarint(uint64(sum.Files))
	w.Uvarint(uint64(sum.Functions))
	w.Uvarint(uint64(sum.DiscoveredStructs))
	w.Uvarint(uint64(sum.DiscoveredAPIs))
	w.Uvarint(uint64(sum.DiscoveredLoops))
	w.Uvarint(uint64(sum.DiscoveredDeviations))
	w.Uvarint(uint64(len(keys)))
	var d [32]byte
	for _, k := range keys {
		hex.Decode(d[:], []byte(k)) // a KeyOf digest: 64 hex digits
		w.Raw(d[:])
	}
	return w.Bytes()
}

// decodeManifest reads what encodeManifest wrote: the entry, without its
// segments, and their keys.
func decodeManifest(data []byte) (*unitEntry, []string, error) {
	r := bincodec.NewReader(data)
	if r.U8() != manifestFormat {
		r.Fail()
	}
	ent := &unitEntry{Summary: UnitSummary{
		Files:                int(r.Uvarint()),
		Functions:            int(r.Uvarint()),
		DiscoveredStructs:    int(r.Uvarint()),
		DiscoveredAPIs:       int(r.Uvarint()),
		DiscoveredLoops:      int(r.Uvarint()),
		DiscoveredDeviations: int(r.Uvarint()),
	}}
	n := r.UCount()
	if n > r.Remaining()/32 {
		r.Fail()
		n = 0
	}
	keys := make([]string, n)
	var d [32]byte
	for i := range keys {
		for j := 0; j < 32; j += 8 {
			binary.LittleEndian.PutUint64(d[j:], r.U64())
		}
		keys[i] = hex.EncodeToString(d[:])
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return ent, keys, nil
}

// encodeSegment encodes one file's finalized report list.
func encodeSegment(reports []Report) []byte {
	var t bincodec.Table
	w := bincodec.NewWriter(reportsCap(len(reports)))
	w.Uvarint(uint64(len(reports)))
	for i := range reports {
		encodeReport(w, &t, &reports[i])
	}
	return bincodec.Tabled(segmentFormat, &t, w)
}

// decodeSegmentValue decodes a segment as the memory tier holds it.
func decodeSegmentValue(data []byte) (any, error) {
	r := bincodec.OpenTabled(data, segmentFormat)
	n := r.UCount()
	reports := make([]Report, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		reports = append(reports, decodeReport(r))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &segment{reports: reports, size: int64(len(data))}, nil
}

// cellsFP fingerprints one file's cells from the unit-scoped checkers: the
// encoding of each checker's non-empty cell, under the checker's index.
func cellsFP(row [][]Report) string {
	parts := make([]string, 0, 2*len(row))
	for ci, cell := range row {
		if len(cell) > 0 {
			parts = append(parts, strconv.Itoa(ci), string(encodeSegment(cell)))
		}
	}
	return analysiscache.KeyOf(parts...)
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
