package facts

import (
	"sort"

	"repro/internal/bincodec"
	"repro/internal/semantics"
)

// Binary codec for the per-unit facts snapshot (the analysiscache facts
// entry and round 2's facts reply). Function names are emitted in sorted
// order and empty collections as zero counts decoding back to nil, so
// encode∘decode is the identity on both the bytes and the structures — the
// determinism the cache matrix tests rely on.
//
// Format 3 mirrors computeData's memory layout on the wire. A snapshot is
// table-deduplicated (bincodec.Tabled), so every string is an id. Each Data
// writes its All events once, then its traces as indices into All: a
// header of grand totals (trace count, total trace events, total
// error-flag slots) lets the decoder allocate the index, block-position,
// branch and error-flag backing arrays once and carve every trace's
// windows out of them — the same O(1)-allocations-per-function shape the
// compute path has. Every index is range-checked on decode.
const factsFormat = 3

func encodeIndices(w *bincodec.Writer, v []int32) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.Uvarint(uint64(x))
	}
}

// decodeIndices reads a list written by encodeIndices whose every entry
// must be below limit.
func decodeIndices(r *bincodec.Reader, limit int) []int32 {
	n := r.UCount()
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		x := r.Uvarint()
		if x >= uint64(limit) {
			r.Fail()
			return nil
		}
		out[i] = int32(x)
	}
	return out
}

func encodeStringSet(w *bincodec.Writer, t *bincodec.Table, m map[string]bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		if m[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	semantics.EncodeRefs(w, t, keys)
}

func decodeStringSet(r *bincodec.Reader) map[string]bool {
	keys := semantics.DecodeRefs(r)
	if keys == nil {
		return nil
	}
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func encodeData(w *bincodec.Writer, t *bincodec.Table, d *Data) {
	semantics.EncodeEvents(w, t, d.All)
	grand, errLen := 0, 0
	for i := range d.Traces {
		grand += len(d.Traces[i].Idx)
		errLen += len(d.Traces[i].ErrFrom)
	}
	w.Uvarint(uint64(len(d.Traces)))
	w.Uvarint(uint64(grand))
	w.Uvarint(uint64(errLen))
	for i := range d.Traces {
		tr := &d.Traces[i]
		w.Uvarint(uint64(len(tr.Idx)))
		w.Uvarint(uint64(len(tr.ErrFrom)))
		for j, x := range tr.Idx {
			w.Uvarint(uint64(x))
			w.Uvarint(uint64(tr.BlockAt[j]))
			w.U8(uint8(tr.Branch[j]))
		}
		for _, b := range tr.ErrFrom {
			w.Bool(b)
		}
	}
	encodeIndices(w, d.DecIdx)
	encodeIndices(w, d.EscapeIdx)
	encodeStringSet(w, t, d.IncBases)
	encodeStringSet(w, t, d.OwnedBases)
}

func decodeData(r *bincodec.Reader) *Data {
	d := &Data{All: semantics.DecodeEvents(r)}
	nTraces := r.UCount()
	grand := r.UCount()
	errLen := r.UCount()
	if r.Err() != nil {
		return d
	}
	// Shared backing arrays, exactly like computeData: per-trace slices are
	// capacity-bounded windows, so decoding costs O(1) allocations per
	// function, not O(traces). UCount already bounded each total by the
	// remaining input, so a hostile header cannot force a huge allocation.
	var idxBack, atBack []int32
	var brBack []int8
	if grand > 0 {
		idxBack = make([]int32, 0, grand)
		atBack = make([]int32, 0, grand)
		brBack = make([]int8, 0, grand)
	}
	efBack := make([]bool, 0, errLen)
	if nTraces > 0 {
		d.Traces = make([]Trace, nTraces)
	}
	for i := 0; i < nTraces; i++ {
		tr := &d.Traces[i]
		tr.all = d.All
		n := r.UCount()
		ne := r.UCount()
		if len(idxBack)+n > grand || len(efBack)+ne > errLen {
			r.Fail()
			return d
		}
		start := len(idxBack)
		for j := 0; j < n; j++ {
			x, at, br := r.Uvarint(), r.Uvarint(), r.U8()
			if x >= uint64(len(d.All)) || at+1 >= uint64(ne) || br > uint8(TookFalse) {
				// An index past All, a block position past the path, or
				// an unknown direction: At and ErrorAfter would misread.
				r.Fail()
				return d
			}
			idxBack = append(idxBack, int32(x))
			atBack = append(atBack, int32(at))
			brBack = append(brBack, int8(br))
		}
		efStart := len(efBack)
		for j := 0; j < ne; j++ {
			efBack = append(efBack, r.Bool())
		}
		if r.Err() != nil {
			return d
		}
		if end := len(idxBack); end > start {
			tr.Idx = idxBack[start:end:end]
			tr.BlockAt = atBack[start:end:end]
			tr.Branch = brBack[start:end:end]
		}
		if efEnd := len(efBack); efEnd > efStart {
			tr.ErrFrom = efBack[efStart:efEnd:efEnd]
		}
	}
	if len(idxBack) != grand || len(efBack) != errLen {
		// The per-trace counts must consume the headers exactly, or the
		// windows no longer mean what the encoder meant.
		r.Fail()
		return d
	}
	d.DecIdx = decodeIndices(r, len(d.All))
	d.EscapeIdx = decodeIndices(r, len(d.All))
	d.IncBases = decodeStringSet(r)
	d.OwnedBases = decodeStringSet(r)
	return d
}

// EncodeSnapshot serializes a facts snapshot (UnitFacts.Snapshot) for the
// analysis cache.
func EncodeSnapshot(snap map[string]*Data) []byte {
	names := make([]string, 0, len(snap))
	n := 0
	for name, d := range snap {
		names = append(names, name)
		n += len(d.All)
		for i := range d.Traces {
			n += len(d.Traces[i].Idx)
		}
	}
	sort.Strings(names)
	// Presize for the body: ~16 bytes per All event, ~3 per trace event.
	var t bincodec.Table
	w := bincodec.NewWriter(64 + 16*n)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Ref(&t, name)
		encodeData(w, &t, snap[name])
	}
	return bincodec.Tabled(factsFormat, &t, w)
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot; any malformed
// input returns bincodec.ErrCorrupt.
func DecodeSnapshot(data []byte) (map[string]*Data, error) {
	r := bincodec.OpenTabled(data, factsFormat)
	n := r.UCount()
	snap := make(map[string]*Data, n)
	for i := 0; i < n; i++ {
		name := r.Ref()
		d := decodeData(r)
		if r.Err() != nil {
			break
		}
		snap[name] = d
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return snap, nil
}
