package cpg

import (
	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/clex"
	"repro/internal/cpp"
	"repro/internal/semantics"
)

// Binary codecs for cpg's three payloads, each table-deduplicated
// (bincodec.Tabled): every string is a uvarint id into the payload's string
// table, and counts, lines and columns are uvarints. The payloads are the
// front-end cache entry (frontEntry: one file's record plus its include
// closure), the shard artifact workers stream back to the manager
// (artifact_codec.go: one record per file) and the file records of the
// exchange (decls.go). A record — a translation unit's expanded tokens,
// preprocessor error messages and discovery observation — is dominated by
// tokens, and a token's macro-origin chain repeats as a whole, so the two
// payloads that carry tokens open their body with a second table of their
// own: every distinct origin chain as a list of string ids, in first-use
// order, chain 0 the empty chain. A token is then its kind byte and five
// uvarints: text, file, line, column and chain. Decoding materializes each
// string and chain once and shares it across every token that names it, so
// a decoded payload also deduplicates in memory.
//
// Each kind has its own format byte, so one kind's bytes never decode as
// another's. Encoding is a deterministic function of the payload
// (observation lists are already ordered), so encoding one that just came
// out of decode reproduces identical bytes. FuzzCacheCodec,
// FuzzShardArtifactCodec and FuzzRecordsCodec pin that, plus the corruption
// contract: arbitrary input either decodes cleanly or fails with
// bincodec.ErrCorrupt, never a panic or huge alloc.

// The payloads' format bytes; bump one on any change to its layout (and
// the front-end entry's together with its fe-vN key tag).
const (
	frontFormat    = 6 // the fe-v6 front-end cache entry
	artifactFormat = 7
	recordsFormat  = 8
)

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

func (in *interner) chain(origin []string) uint32 {
	if len(origin) == 0 {
		return 0
	}
	in.keyBuf = in.keyBuf[:0]
	in.idBuf = in.idBuf[:0]
	for _, s := range origin {
		id := in.strs.ID(s)
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

// chainSection writes the origin-chain table, the first body section of a
// token-carrying payload: the chain count, then per chain its length and
// string ids.
func (in *interner) chainSection() *bincodec.Writer {
	w := bincodec.NewWriter(8 + 4*len(in.chains))
	w.Uvarint(uint64(len(in.chains)))
	for _, ch := range in.chains {
		w.Uvarint(uint64(len(ch)))
		for _, id := range ch {
			w.Uvarint(uint64(id))
		}
	}
	return w
}

// readChains reads the section chainSection wrote; chain 0 must exist and
// be the empty chain.
func readChains(r *bincodec.Reader) [][]string {
	chains := make([][]string, r.UCount())
	for i := range chains {
		chains[i] = semantics.DecodeRefs(r)
	}
	if len(chains) == 0 || chains[0] != nil {
		r.Fail()
	}
	return chains
}

const leadingSpaceBit = 0x80

func encodeToken(w *bincodec.Writer, in *interner, t *clex.Token) {
	kb := uint8(t.Kind)
	if t.LeadingSpace {
		kb |= leadingSpaceBit
	}
	w.U8(kb)
	w.Ref(&in.strs, t.Text)
	semantics.EncodePos(w, &in.strs, t.Pos)
	w.Uvarint(uint64(in.chain(t.Origin)))
}

func decodeToken(r *bincodec.Reader, chains [][]string) clex.Token {
	kb := r.U8()
	t := clex.Token{
		Kind:         clex.Kind(kb &^ leadingSpaceBit),
		LeadingSpace: kb&leadingSpaceBit != 0,
		Text:         r.Ref(),
		Pos:          semantics.DecodePos(r),
	}
	if cid := r.Uvarint(); cid < uint64(len(chains)) {
		t.Origin = chains[cid]
	} else {
		r.Fail()
	}
	if t.Kind > clex.KindMax {
		r.Fail()
	}
	return t
}

// encodeRecord writes one file's record: its token stream, its
// preprocessor error messages and its discovery observation.
func encodeRecord(w *bincodec.Writer, in *interner, toks []clex.Token, cppErrs []string, o *apidb.FileObs) {
	w.Uvarint(uint64(len(toks)))
	for i := range toks {
		encodeToken(w, in, &toks[i])
	}
	semantics.EncodeRefs(w, &in.strs, cppErrs)
	encodeFileObs(w, &in.strs, o)
}

// decodeRecord reads one record written by encodeRecord.
func decodeRecord(r *bincodec.Reader, chains [][]string) (toks []clex.Token, cppErrs []string, o apidb.FileObs) {
	n := r.UCount()
	if n > 0 {
		toks = make([]clex.Token, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		toks = append(toks, decodeToken(r, chains))
	}
	return toks, semantics.DecodeRefs(r), decodeFileObs(r)
}

func encodeFileObs(w *bincodec.Writer, t *bincodec.Table, o *apidb.FileObs) {
	w.Ref(t, o.Path)
	w.Uvarint(uint64(len(o.Structs)))
	for i := range o.Structs {
		s := &o.Structs[i]
		w.Ref(t, s.Name)
		w.Uvarint(uint64(len(s.Fields)))
		for _, f := range s.Fields {
			w.Ref(t, f.Base)
			w.Ref(t, f.Struct)
		}
	}
	w.Uvarint(uint64(len(o.Funcs)))
	for i := range o.Funcs {
		fn := &o.Funcs[i]
		w.Ref(t, fn.Name)
		semantics.EncodeRefs(w, t, fn.Params)
		w.Bool(fn.RetPointer)
		w.Bool(fn.ReturnsNull)
		w.Bool(fn.ErrorCode)
		w.Uvarint(uint64(len(fn.Calls)))
		for ci := range fn.Calls {
			c := &fn.Calls[ci]
			w.Ref(t, c.Callee)
			semantics.EncodeRefs(w, t, c.ArgBases)
		}
		w.Uvarint(uint64(len(fn.CounterOps)))
		for _, c := range fn.CounterOps {
			w.Ref(t, c.Base)
			w.Bool(c.Inc)
		}
		semantics.EncodeRefs(w, t, fn.TailCallees)
	}
	w.Uvarint(uint64(len(o.Macros)))
	for i := range o.Macros {
		m := &o.Macros[i]
		w.Ref(t, m.Name)
		w.Bool(m.Loop)
		if !m.Loop {
			continue
		}
		semantics.EncodeRefs(w, t, m.Params)
		w.Uvarint(uint64(len(m.Idents)))
		for _, id := range m.Idents {
			w.Ref(t, id.Name)
			w.Bool(id.NextAssign)
		}
	}
}

func decodeFileObs(r *bincodec.Reader) apidb.FileObs {
	o := apidb.FileObs{Path: r.Ref()}
	nStructs := r.UCount()
	for i := 0; i < nStructs && r.Err() == nil; i++ {
		s := apidb.StructObs{Name: r.Ref()}
		nFields := r.UCount()
		for j := 0; j < nFields && r.Err() == nil; j++ {
			s.Fields = append(s.Fields, apidb.FieldObs{Base: r.Ref(), Struct: r.Ref()})
		}
		o.Structs = append(o.Structs, s)
	}
	nFuncs := r.UCount()
	for i := 0; i < nFuncs && r.Err() == nil; i++ {
		fn := apidb.FuncObs{Name: r.Ref(), Params: semantics.DecodeRefs(r)}
		fn.RetPointer = r.Bool()
		fn.ReturnsNull = r.Bool()
		fn.ErrorCode = r.Bool()
		nCalls := r.UCount()
		for j := 0; j < nCalls && r.Err() == nil; j++ {
			fn.Calls = append(fn.Calls, apidb.CallObs{Callee: r.Ref(), ArgBases: semantics.DecodeRefs(r)})
		}
		nOps := r.UCount()
		for j := 0; j < nOps && r.Err() == nil; j++ {
			fn.CounterOps = append(fn.CounterOps, apidb.CounterOpObs{Base: r.Ref(), Inc: r.Bool()})
		}
		fn.TailCallees = semantics.DecodeRefs(r)
		o.Funcs = append(o.Funcs, fn)
	}
	nMacros := r.UCount()
	for i := 0; i < nMacros && r.Err() == nil; i++ {
		m := apidb.MacroObs{Name: r.Ref(), Loop: r.Bool()}
		if m.Loop {
			m.Params = semantics.DecodeRefs(r)
			nIdents := r.UCount()
			for j := 0; j < nIdents && r.Err() == nil; j++ {
				m.Idents = append(m.Idents, apidb.LoopIdentObs{Name: r.Ref(), NextAssign: r.Bool()})
			}
		}
		o.Macros = append(o.Macros, m)
	}
	return o
}

// encodeFrontEntry serializes ent: the string table, the origin chains,
// then the include closure (count; per dependency its path and hash ids)
// and the record.
func encodeFrontEntry(ent *frontEntry) []byte {
	in := newInterner()
	body := bincodec.NewWriter(32 + len(ent.Tokens)*8)
	body.Uvarint(uint64(len(ent.Closure)))
	for _, d := range ent.Closure {
		body.Ref(&in.strs, d.Path)
		body.Ref(&in.strs, d.Hash)
	}
	encodeRecord(body, in, ent.Tokens, ent.CppErrors, &ent.Obs)
	return bincodec.Tabled(frontFormat, &in.strs, in.chainSection(), body)
}

// decodeFrontValue is the front-end entry's decode callback: it builds a
// frontEntry in fresh storage (no pooled buffers), suitable for retention
// in the cache's in-memory tier and sharing across builds, with an empty
// parse memo. It returns bincodec.ErrCorrupt on any malformed input.
func decodeFrontValue(data []byte) (any, error) {
	r := bincodec.OpenTabled(data, frontFormat)
	chains := readChains(r)
	ent := &frontEntry{memo: &frontMemo{charge: int64(len(data))}}
	nDeps := r.UCount()
	for i := 0; i < nDeps && r.Err() == nil; i++ {
		ent.Closure = append(ent.Closure, cpp.IncludeDep{Path: r.Ref(), Hash: r.Ref()})
	}
	ent.Tokens, ent.CppErrors, ent.Obs = decodeRecord(r, chains)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ent, nil
}
