package semantics

import (
	"sync"

	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/clex"
)

// Binary codec for cached events (the facts and report payloads). Events
// are written into table-deduplicated payloads (bincodec.Tabled): every
// string field is a uvarint id into the payload's string table, and
// positions and small integers are uvarints, so an event costs a few bytes
// per field and decoding shares one copy of each string. Events are encoded
// blocks-stripped: every cached form already clears the CFG block pointer
// (facts normalization, stripWitnessBlocks), so the codec neither writes nor
// restores it. Decoding validates every enum against its range and fails
// the reader on anything impossible, so a corrupted entry degrades to a
// counted cache miss instead of smuggling garbage into a checker.

// EncodePos appends a source position.
func EncodePos(w *bincodec.Writer, t *bincodec.Table, p clex.Pos) {
	w.Ref(t, p.File)
	w.Uvarint(uint64(p.Line))
	w.Uvarint(uint64(p.Col))
}

// DecodePos reads a position written by EncodePos.
func DecodePos(r *bincodec.Reader) clex.Pos {
	return clex.Pos{File: r.Ref(), Line: int(r.Uvarint()), Col: int(r.Uvarint())}
}

// EncodeRefs appends a count-prefixed list of string ids.
func EncodeRefs(w *bincodec.Writer, t *bincodec.Table, ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.Ref(t, s)
	}
}

// DecodeRefs reads a list written by EncodeRefs, nil when empty.
func DecodeRefs(r *bincodec.Reader) []string {
	n := r.UCount()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Ref()
	}
	return out
}

// encodeAPI appends an apidb entry (presence flag first: Info is nil for
// non-refcounting calls).
func encodeAPI(w *bincodec.Writer, t *bincodec.Table, a *apidb.API) {
	if a == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Ref(t, a.Name)
	w.U8(uint8(a.Op))
	w.U8(uint8(a.Class))
	w.Uvarint(uint64(a.ObjArg))
	w.Bool(a.ReturnsRef)
	w.Ref(t, a.Pair)
	w.Bool(a.IncOnError)
	w.Bool(a.MayReturnNull)
	w.Bool(a.HasDecArg)
	w.Uvarint(uint64(a.DecArgObj))
	w.Bool(a.MayFree)
	w.Ref(t, a.Struct)
	w.Bool(a.Discovered)
}

func decodeAPI(r *bincodec.Reader) *apidb.API {
	if !r.Bool() {
		return nil
	}
	a := apidb.API{
		Name:          r.Ref(),
		Op:            apidb.Op(r.U8()),
		Class:         apidb.Class(r.U8()),
		ObjArg:        int(r.Uvarint()),
		ReturnsRef:    r.Bool(),
		Pair:          r.Ref(),
		IncOnError:    r.Bool(),
		MayReturnNull: r.Bool(),
		HasDecArg:     r.Bool(),
		DecArgObj:     int(r.Uvarint()),
		MayFree:       r.Bool(),
		Struct:        r.Ref(),
		Discovered:    r.Bool(),
	}
	if a.Op > apidb.OpDec || a.Class > apidb.Embedded {
		r.Fail()
		return nil
	}
	return internAPI(a)
}

// apiIntern shares one *apidb.API per distinct decoded value. Consumers
// treat Event.Info as immutable database metadata, and a unit's events
// repeat a handful of APIs thousands of times, so decoding a fresh struct
// per event was pure allocation churn. The table is process-lifetime and
// bounded by the number of distinct API entries ever decoded.
var apiIntern = struct {
	sync.RWMutex
	m map[apidb.API]*apidb.API
}{m: map[apidb.API]*apidb.API{}}

func internAPI(a apidb.API) *apidb.API {
	apiIntern.RLock()
	p := apiIntern.m[a]
	apiIntern.RUnlock()
	if p != nil {
		return p
	}
	apiIntern.Lock()
	if p = apiIntern.m[a]; p == nil {
		p = &a
		apiIntern.m[a] = p
	}
	apiIntern.Unlock()
	return p
}

// EncodeEvent appends one event (Block excluded by design).
func EncodeEvent(w *bincodec.Writer, t *bincodec.Table, ev *Event) {
	w.U8(uint8(ev.Op))
	w.Ref(t, ev.Obj)
	w.Ref(t, ev.API)
	encodeAPI(w, t, ev.Info)
	w.Ref(t, ev.AssignTarget)
	w.Ref(t, ev.EscapesVia)
	EncodeRefs(w, t, ev.NonNullTrue)
	EncodeRefs(w, t, ev.NonNullFalse)
	EncodePos(w, t, ev.Pos)
	w.Ref(t, ev.FromMacro)
}

// DecodeEvent reads an event written by EncodeEvent (Block stays nil).
func DecodeEvent(r *bincodec.Reader) Event {
	ev := Event{
		Op:           OpKind(r.U8()),
		Obj:          r.Ref(),
		API:          r.Ref(),
		Info:         decodeAPI(r),
		AssignTarget: r.Ref(),
		EscapesVia:   r.Ref(),
		NonNullTrue:  DecodeRefs(r),
		NonNullFalse: DecodeRefs(r),
		Pos:          DecodePos(r),
		FromMacro:    r.Ref(),
	}
	if ev.Op > OpCond {
		r.Fail()
	}
	return ev
}

// EncodeEvents appends a count-prefixed event slice.
func EncodeEvents(w *bincodec.Writer, t *bincodec.Table, evs []Event) {
	w.Uvarint(uint64(len(evs)))
	for i := range evs {
		EncodeEvent(w, t, &evs[i])
	}
}

// DecodeEvents reads a slice written by EncodeEvents, nil when empty.
func DecodeEvents(r *bincodec.Reader) []Event {
	n := r.UCount()
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = DecodeEvent(r)
	}
	return out
}
