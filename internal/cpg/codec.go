package cpg

import (
	"sort"

	"repro/internal/bincodec"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// Binary codec for the per-file front-end cache entry (frontEntry). The
// entry is dominated by tokens, and token fields repeat massively — the same
// identifier spelling, file name, and macro-origin chain appear thousands of
// times — so the encoding deduplicates through two per-entry tables:
//
//   - a string table holding every distinct spelling/file/origin component,
//     built in first-use order during encoding;
//   - an origin-chain table holding every distinct provenance chain as
//     string-table indices (chain 0 is the empty chain).
//
// A token is then six fixed-width fields (21 bytes) referencing the tables.
// Decoding materializes each table entry once and shares it across every
// referencing token, so a decoded entry also deduplicates in memory.
//
// Both table constructions are deterministic functions of the entry (maps
// are walked in sorted order), so encoding the same entry — including one
// that just came out of decode — reproduces identical bytes. FuzzCacheCodec
// pins that, plus the corruption contract: arbitrary input either decodes
// cleanly or fails with bincodec.ErrCorrupt, never a panic or huge alloc.

// feMagic identifies a front-entry payload; the last byte is the version.
const feMagic uint32 = 'F' | 'E'<<8 | 'C'<<16 | 1<<24

// interner assigns dense ids to strings and origin chains in first-use
// order.
type interner struct {
	strIdx   map[string]uint32
	strs     []string
	chainIdx map[string]uint32
	chains   [][]uint32

	// scratch buffers reused across chain() calls; the chain-key bytes and
	// id list only outlive a call when the chain is new.
	keyBuf []byte
	idBuf  []uint32
}

func newInterner() *interner {
	in := &interner{strIdx: map[string]uint32{}, chainIdx: map[string]uint32{}}
	// Chain 0 is the empty origin chain, so literal tokens cost no lookup.
	in.chainIdx[""] = 0
	in.chains = append(in.chains, nil)
	return in
}

func (in *interner) str(s string) uint32 {
	if id, ok := in.strIdx[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	in.strIdx[s] = id
	in.strs = append(in.strs, s)
	return id
}

func (in *interner) chain(origin []string) uint32 {
	if len(origin) == 0 {
		return 0
	}
	in.keyBuf = in.keyBuf[:0]
	in.idBuf = in.idBuf[:0]
	for _, s := range origin {
		id := in.str(s)
		in.idBuf = append(in.idBuf, id)
		in.keyBuf = append(in.keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), 0)
	}
	if id, ok := in.chainIdx[string(in.keyBuf)]; ok {
		return id
	}
	id := uint32(len(in.chains))
	in.chainIdx[string(in.keyBuf)] = id
	in.chains = append(in.chains, append([]uint32(nil), in.idBuf...))
	return id
}

const leadingSpaceBit = 0x80

func encodeToken(w *bincodec.Writer, in *interner, t *clex.Token) {
	kb := uint8(t.Kind)
	if t.LeadingSpace {
		kb |= leadingSpaceBit
	}
	w.U8(kb)
	w.U32(in.str(t.Text))
	w.U32(in.str(t.Pos.File))
	w.U32(uint32(t.Pos.Line))
	w.U32(uint32(t.Pos.Col))
	w.U32(in.chain(t.Origin))
}

// decTables is the decoded table pair; token decoding resolves against it.
type decTables struct {
	strs   []string
	chains [][]string
}

func (dt *decTables) str(r *bincodec.Reader) string {
	id := r.U32()
	if int(id) >= len(dt.strs) {
		r.Fail()
		return ""
	}
	return dt.strs[id]
}

func decodeToken(r *bincodec.Reader, dt *decTables) clex.Token {
	kb := r.U8()
	t := clex.Token{
		Kind:         clex.Kind(kb &^ leadingSpaceBit),
		LeadingSpace: kb&leadingSpaceBit != 0,
		Text:         dt.str(r),
	}
	t.Pos.File = dt.str(r)
	t.Pos.Line = int(r.U32())
	t.Pos.Col = int(r.U32())
	cid := r.U32()
	if int(cid) >= len(dt.chains) {
		r.Fail()
		return t
	}
	t.Origin = dt.chains[cid]
	if t.Kind > clex.KindMax {
		r.Fail()
	}
	return t
}

func encodeTokens(w *bincodec.Writer, in *interner, toks []clex.Token) {
	w.U32(uint32(len(toks)))
	for i := range toks {
		encodeToken(w, in, &toks[i])
	}
}

func decodeTokens(r *bincodec.Reader, dt *decTables, dst []clex.Token) []clex.Token {
	n := r.Count()
	if cap(dst) < n {
		dst = make([]clex.Token, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, decodeToken(r, dt))
		if r.Err() != nil {
			return dst
		}
	}
	return dst
}

func encodePosInterned(w *bincodec.Writer, in *interner, p clex.Pos) {
	w.U32(in.str(p.File))
	w.U32(uint32(p.Line))
	w.U32(uint32(p.Col))
}

func decodePosInterned(r *bincodec.Reader, dt *decTables) clex.Pos {
	return clex.Pos{File: dt.str(r), Line: int(r.U32()), Col: int(r.U32())}
}

func encodeMacro(w *bincodec.Writer, in *interner, m *cpp.Macro) {
	w.U32(in.str(m.Name))
	w.U32(uint32(len(m.Params)))
	for _, p := range m.Params {
		w.U32(in.str(p))
	}
	w.Bool(m.Params != nil)
	w.Bool(m.Variadic)
	w.Bool(m.FuncLike)
	w.Bool(m.Predefined)
	encodePosInterned(w, in, m.DefinedAt)
	encodeTokens(w, in, m.Body)
}

func decodeMacro(r *bincodec.Reader, dt *decTables) *cpp.Macro {
	m := &cpp.Macro{Name: dt.str(r)}
	nParams := r.Count()
	for i := 0; i < nParams; i++ {
		m.Params = append(m.Params, dt.str(r))
	}
	if r.Bool() && m.Params == nil {
		// Function-like with zero params: Params is non-nil but empty.
		m.Params = []string{}
	}
	m.Variadic = r.Bool()
	m.FuncLike = r.Bool()
	m.Predefined = r.Bool()
	m.DefinedAt = decodePosInterned(r, dt)
	m.Body = decodeTokens(r, dt, nil)
	if len(m.Body) == 0 {
		m.Body = nil
	}
	return m
}

// encodeFrontEntry serializes ent: magic, string/chain tables, then the body
// (closure, tokens, macros in sorted name order, errors).
func encodeFrontEntry(ent *frontEntry) []byte {
	in := newInterner()
	body := bincodec.NewWriter(32 + len(ent.Tokens)*21)

	body.U32(uint32(len(ent.Closure)))
	for _, d := range ent.Closure {
		body.String(d.Path)
		body.String(d.Hash)
	}
	encodeTokens(body, in, ent.Tokens)
	names := make([]string, 0, len(ent.Macros))
	for n := range ent.Macros {
		names = append(names, n)
	}
	sort.Strings(names)
	body.U32(uint32(len(names)))
	for _, n := range names {
		encodeMacro(body, in, ent.Macros[n])
	}
	body.Strings(ent.CppErrors)

	w := bincodec.NewWriter(16 + body.Len())
	w.U32(feMagic)
	w.Strings(in.strs)
	w.U32(uint32(len(in.chains)))
	for _, ch := range in.chains {
		w.U32(uint32(len(ch)))
		for _, id := range ch {
			w.U32(id)
		}
	}
	w.Raw(body.Bytes())
	return w.Bytes()
}

// decodeFrontEntry parses data into ent, reusing tokBuf (when large enough)
// for the main token stream so a pooled buffer can back it. It returns
// bincodec.ErrCorrupt on any malformed input.
func decodeFrontEntry(data []byte, ent *frontEntry, tokBuf []clex.Token) error {
	r := bincodec.NewReader(data)
	if r.U32() != feMagic {
		r.Fail()
		return r.Err()
	}
	dt := &decTables{strs: r.Strings()}
	nChains := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	dt.chains = make([][]string, nChains)
	for i := 0; i < nChains; i++ {
		cn := r.Count()
		if cn == 0 {
			continue
		}
		ch := make([]string, cn)
		for j := range ch {
			ch[j] = dt.str(r)
		}
		dt.chains[i] = ch
	}
	if nChains == 0 || dt.chains[0] != nil {
		// Chain 0 must exist and be the empty chain.
		r.Fail()
		return r.Err()
	}

	nDeps := r.Count()
	for i := 0; i < nDeps; i++ {
		ent.Closure = append(ent.Closure, cpp.IncludeDep{Path: r.String(), Hash: r.String()})
	}
	ent.Tokens = decodeTokens(r, dt, tokBuf)
	nMacros := r.Count()
	ent.Macros = make(map[string]*cpp.Macro, nMacros)
	for i := 0; i < nMacros; i++ {
		m := decodeMacro(r, dt)
		if r.Err() != nil {
			break
		}
		ent.Macros[m.Name] = m
	}
	ent.CppErrors = r.Strings()
	return r.Done()
}

// decodeFrontValue is the value-tier decode callback: it builds a frontEntry
// in fresh storage (no pooled buffers) suitable for retention in the cache's
// in-memory tier and sharing across builds, with an empty parse memo. The
// Macros map is normalized to non-nil here, eagerly, because the shared
// entry must never be mutated by a reader.
func decodeFrontValue(data []byte) (any, error) {
	ent := &frontEntry{memo: &frontMemo{charge: int64(len(data))}}
	if err := decodeFrontEntry(data, ent, nil); err != nil {
		return nil, err
	}
	if ent.Macros == nil {
		ent.Macros = map[string]*cpp.Macro{}
	}
	return ent, nil
}
