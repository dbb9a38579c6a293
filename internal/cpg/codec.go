package cpg

import (
	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// Binary codec for the per-file record — a translation unit's expanded
// tokens, preprocessor error messages and discovery observation — which
// both payloads of the front end carry: the front-end cache entry
// (frontEntry, one record plus its include closure) and the shard artifact
// workers stream back to the manager (artifact_codec.go, one record per
// file). The record is dominated by tokens, and token fields repeat
// massively — the same identifier spelling, file name, and macro-origin
// chain appear thousands of times — so a payload deduplicates through one
// header of two tables shared by all its records:
//
//   - a string table holding every distinct spelling/file/origin component,
//     error message and observed name, built in first-use order during
//     encoding;
//   - an origin-chain table holding every distinct provenance chain as
//     string-table indices (chain 0 is the empty chain).
//
// A token is then six fixed-width fields (21 bytes) referencing the tables.
// Decoding materializes each table entry once and shares it across every
// referencing token, so a decoded payload also deduplicates in memory.
//
// Encoding is a deterministic function of the payload (observation lists
// are already ordered), so encoding one that just came out of decode
// reproduces identical bytes. FuzzCacheCodec and FuzzShardArtifactCodec pin
// that, plus the corruption contract: arbitrary input either decodes
// cleanly or fails with bincodec.ErrCorrupt, never a panic or huge alloc.

// feMagic identifies a front-entry payload; the last byte is the version.
const feMagic uint32 = 'F' | 'E'<<8 | 'C'<<16 | 2<<24

// interner assigns dense ids to strings (a bincodec.Table) and origin
// chains in first-use order.
type interner struct {
	strs     bincodec.Table
	chainIdx map[string]uint32
	chains   [][]uint32

	// scratch buffers reused across chain() calls; the chain-key bytes and
	// id list only outlive a call when the chain is new.
	keyBuf []byte
	idBuf  []uint32
}

func newInterner() *interner {
	in := &interner{chainIdx: map[string]uint32{}}
	// Chain 0 is the empty origin chain, so literal tokens cost no lookup.
	in.chainIdx[""] = 0
	in.chains = append(in.chains, nil)
	return in
}

func (in *interner) str(s string) uint32 { return in.strs.ID(s) }

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

// frame assembles a payload: magic, the interner's table header, then the
// body, whose records reference the tables.
func frame(magic uint32, in *interner, body *bincodec.Writer) []byte {
	w := bincodec.NewWriter(16 + body.Len())
	w.U32(magic)
	w.Strings(in.strs.Strings())
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

// decTables is the decoded table header; record decoding resolves against
// it.
type decTables struct {
	strs   []string
	chains [][]string
}

// readFrame checks the payload's magic and reads its table header, leaving
// the reader at the body. On malformed input the reader is failed and the
// tables are nil.
func readFrame(data []byte, magic uint32) (*bincodec.Reader, *decTables) {
	r := bincodec.NewReader(data)
	if r.U32() != magic {
		r.Fail()
		return r, nil
	}
	dt := &decTables{strs: r.Strings()}
	nChains := r.Count()
	if r.Err() != nil {
		return r, nil
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
	if nChains == 0 || dt.chains[0] != nil || r.Err() != nil {
		// Chain 0 must exist and be the empty chain.
		r.Fail()
		return r, nil
	}
	return r, dt
}

func (dt *decTables) str(r *bincodec.Reader) string {
	id := r.U32()
	if int(id) >= len(dt.strs) {
		r.Fail()
		return ""
	}
	return dt.strs[id]
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

// encodeRecord writes one file's record: its token stream, its
// preprocessor error messages and its discovery observation.
func encodeRecord(w *bincodec.Writer, in *interner, toks []clex.Token, cppErrs []string, o *apidb.FileObs) {
	w.U32(uint32(len(toks)))
	for i := range toks {
		encodeToken(w, in, &toks[i])
	}
	w.U32(uint32(len(cppErrs)))
	for _, e := range cppErrs {
		w.U32(in.str(e))
	}
	encodeFileObs(w, in, o)
}

// decodeRecord reads one record written by encodeRecord.
func decodeRecord(r *bincodec.Reader, dt *decTables) (toks []clex.Token, cppErrs []string, o apidb.FileObs) {
	n := r.Count()
	if n > 0 {
		toks = make([]clex.Token, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		toks = append(toks, decodeToken(r, dt))
	}
	nErrs := r.Count()
	for i := 0; i < nErrs && r.Err() == nil; i++ {
		cppErrs = append(cppErrs, dt.str(r))
	}
	return toks, cppErrs, decodeFileObs(r, dt)
}

func encodeFileObs(w *bincodec.Writer, in *interner, o *apidb.FileObs) {
	w.U32(in.str(o.Path))
	w.U32(uint32(len(o.Structs)))
	for i := range o.Structs {
		s := &o.Structs[i]
		w.U32(in.str(s.Name))
		w.U32(uint32(len(s.Fields)))
		for _, f := range s.Fields {
			w.U32(in.str(f.Base))
			w.U32(in.str(f.Struct))
		}
	}
	w.U32(uint32(len(o.Funcs)))
	for i := range o.Funcs {
		fn := &o.Funcs[i]
		w.U32(in.str(fn.Name))
		w.U32(uint32(len(fn.Params)))
		for _, p := range fn.Params {
			w.U32(in.str(p))
		}
		w.Bool(fn.RetPointer)
		w.Bool(fn.ReturnsNull)
		w.Bool(fn.ErrorCode)
		w.U32(uint32(len(fn.Calls)))
		for ci := range fn.Calls {
			c := &fn.Calls[ci]
			w.U32(in.str(c.Callee))
			w.U32(uint32(len(c.ArgBases)))
			for _, b := range c.ArgBases {
				w.U32(in.str(b))
			}
		}
		w.U32(uint32(len(fn.CounterOps)))
		for _, c := range fn.CounterOps {
			w.U32(in.str(c.Base))
			w.Bool(c.Inc)
		}
		w.U32(uint32(len(fn.TailCallees)))
		for _, t := range fn.TailCallees {
			w.U32(in.str(t))
		}
	}
	w.U32(uint32(len(o.Macros)))
	for i := range o.Macros {
		m := &o.Macros[i]
		w.U32(in.str(m.Name))
		w.Bool(m.Loop)
		if !m.Loop {
			continue
		}
		w.U32(uint32(len(m.Params)))
		for _, p := range m.Params {
			w.U32(in.str(p))
		}
		w.U32(uint32(len(m.Idents)))
		for _, id := range m.Idents {
			w.U32(in.str(id.Name))
			w.Bool(id.NextAssign)
		}
	}
}

func decodeFileObs(r *bincodec.Reader, dt *decTables) apidb.FileObs {
	o := apidb.FileObs{Path: dt.str(r)}
	nStructs := r.Count()
	for i := 0; i < nStructs && r.Err() == nil; i++ {
		s := apidb.StructObs{Name: dt.str(r)}
		nFields := r.Count()
		for j := 0; j < nFields && r.Err() == nil; j++ {
			s.Fields = append(s.Fields, apidb.FieldObs{
				Base: dt.str(r), Struct: dt.str(r),
			})
		}
		o.Structs = append(o.Structs, s)
	}
	nFuncs := r.Count()
	for i := 0; i < nFuncs && r.Err() == nil; i++ {
		fn := apidb.FuncObs{Name: dt.str(r)}
		nParams := r.Count()
		for j := 0; j < nParams; j++ {
			fn.Params = append(fn.Params, dt.str(r))
		}
		fn.RetPointer = r.Bool()
		fn.ReturnsNull = r.Bool()
		fn.ErrorCode = r.Bool()
		nCalls := r.Count()
		for j := 0; j < nCalls && r.Err() == nil; j++ {
			c := apidb.CallObs{Callee: dt.str(r)}
			nArgs := r.Count()
			for k := 0; k < nArgs; k++ {
				c.ArgBases = append(c.ArgBases, dt.str(r))
			}
			fn.Calls = append(fn.Calls, c)
		}
		nOps := r.Count()
		for j := 0; j < nOps; j++ {
			fn.CounterOps = append(fn.CounterOps, apidb.CounterOpObs{
				Base: dt.str(r), Inc: r.Bool(),
			})
		}
		nTails := r.Count()
		for j := 0; j < nTails; j++ {
			fn.TailCallees = append(fn.TailCallees, dt.str(r))
		}
		o.Funcs = append(o.Funcs, fn)
	}
	nMacros := r.Count()
	for i := 0; i < nMacros && r.Err() == nil; i++ {
		m := apidb.MacroObs{Name: dt.str(r), Loop: r.Bool()}
		if m.Loop {
			nParams := r.Count()
			for j := 0; j < nParams; j++ {
				m.Params = append(m.Params, dt.str(r))
			}
			nIdents := r.Count()
			for j := 0; j < nIdents; j++ {
				m.Idents = append(m.Idents, apidb.LoopIdentObs{
					Name: dt.str(r), NextAssign: r.Bool(),
				})
			}
		}
		o.Macros = append(o.Macros, m)
	}
	return o
}

// encodeFrontEntry serializes ent: magic, table header, then the body
// (closure, record).
func encodeFrontEntry(ent *frontEntry) []byte {
	in := newInterner()
	body := bincodec.NewWriter(32 + len(ent.Tokens)*21)
	body.U32(uint32(len(ent.Closure)))
	for _, d := range ent.Closure {
		body.String(d.Path)
		body.String(d.Hash)
	}
	encodeRecord(body, in, ent.Tokens, ent.CppErrors, &ent.Obs)
	return frame(feMagic, in, body)
}

// decodeFrontValue is the front-end entry's decode callback: it builds a
// frontEntry in fresh storage (no pooled buffers), suitable for retention
// in the cache's in-memory tier and sharing across builds, with an empty
// parse memo. It returns bincodec.ErrCorrupt on any malformed input.
func decodeFrontValue(data []byte) (any, error) {
	r, dt := readFrame(data, feMagic)
	if dt == nil {
		return nil, r.Err()
	}
	ent := &frontEntry{memo: &frontMemo{charge: int64(len(data))}}
	nDeps := r.Count()
	for i := 0; i < nDeps; i++ {
		ent.Closure = append(ent.Closure, cpp.IncludeDep{Path: r.String(), Hash: r.String()})
	}
	ent.Tokens, ent.CppErrors, ent.Obs = decodeRecord(r, dt)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ent, nil
}
