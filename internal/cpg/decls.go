package cpg

import (
	"crypto/sha256"
	"sort"
	"sync"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/bincodec"
	"repro/internal/cast"
	"repro/internal/semantics"
)

// FileRecord is what one file contributes to the exchange: its path and
// front-end fingerprint, its discovery observation, and its declaration
// record. It is everything a process needs to know about a file it does not
// hold, so it is all that crosses a process boundary before checking.
type FileRecord struct {
	Path     string
	SourceFP string // Unit.SourceFP's entry; "" when the build had no cache
	Obs      apidb.FileObs
	Decls    FileDecls
}

// FileDecls lists a file's top-level declarations in source order: every
// function (prototypes included), struct and global variable.
type FileDecls struct {
	Funcs   []FuncDecl
	Structs []StructInfo
	Globals []GlobalInfo
}

// FuncDecl is one function declaration; Body is false for a prototype.
type FuncDecl struct {
	Name string
	Body bool
}

// StructInfo is one struct declaration: its fields' names and struct types
// (FieldInfo.Struct is "" for a non-struct field).
type StructInfo struct {
	Name   string
	Fields []FieldInfo
}

// FieldInfo is one struct field.
type FieldInfo struct {
	Name, Struct string
}

// GlobalInfo is one global variable: its struct type ("" when not a struct)
// and its designated-initializer entries whose value is a plain identifier
// (`.probe = foo_probe`), in source order.
type GlobalInfo struct {
	Name, Struct string
	Inits        []InitInfo
}

// InitInfo is one `.Field = Ident` initializer entry.
type InitInfo struct {
	Field, Ident string
}

// FuncEntry is the declaration table's entry for a function: the file of
// the declaration that won and whether it has a body.
type FuncEntry struct {
	File string
	Body bool
}

// Decls is the declaration table: every name declared anywhere in the
// corpus, resolved by assembly's rule over files in path order. A function
// goes to the last declaration with a body, or, when none has one, to the
// first prototype; a struct or global goes to its last declaration, even a
// bare extern. The table is read-only once built.
type Decls struct {
	Funcs   map[string]FuncEntry
	Structs map[string]*StructInfo
	Globals map[string]*GlobalInfo

	definedOnce sync.Once
	defined     *FuncIndex // see Defined
}

// Exchange is what every process knows once the exchange has run: the
// discovery result applied to its DB, the declaration table, and how many
// files the corpus has.
type Exchange struct {
	Files int
	Disc  apidb.Discovery
	Decls *Decls

	envMu sync.Mutex
	envDB *apidb.DB
	ext   *analysisEnv // see env
}

// env returns the analysis environment of units assembled against the
// exchange with db: an extractor over db and the table's global names. It
// is built once per exchange and DB, so assembly against an exchange that
// is reused across builds makes no new one, and the function shells a
// memoized parse keeps for it stay valid (see ArtFile.functions).
func (x *Exchange) env(db *apidb.DB) *analysisEnv {
	x.envMu.Lock()
	defer x.envMu.Unlock()
	if x.ext == nil || x.envDB != db {
		globals := make(map[string]bool, len(x.Decls.Globals))
		for name := range x.Decls.Globals {
			globals[name] = true
		}
		x.envDB, x.ext = db, &analysisEnv{ext: &semantics.Extractor{DB: db, GlobalNames: globals}}
	}
	return x.ext
}

// ExchangeRecords is the exchange: it replays the records' observations into
// db (see apidb.DB.Apply) and merges their declarations into one table, both
// in path order, whatever order recs arrive in. Every process that runs it
// over the same records ends with the same DB and table.
func ExchangeRecords(db *apidb.DB, recs []FileRecord) *Exchange {
	byPath := func(i, j int) bool { return recs[i].Path < recs[j].Path }
	if !sort.SliceIsSorted(recs, byPath) {
		recs = append([]FileRecord(nil), recs...)
		sort.SliceStable(recs, byPath)
	}
	obs := make([]apidb.FileObs, len(recs))
	for i := range recs {
		obs[i] = recs[i].Obs
	}
	return &Exchange{Files: len(recs), Disc: db.Apply(obs), Decls: mergeDecls(recs)}
}

// mergeDecls builds the declaration table from path-ordered records.
func mergeDecls(recs []FileRecord) *Decls {
	var nf, ns, ng int
	for i := range recs {
		nf += len(recs[i].Decls.Funcs)
		ns += len(recs[i].Decls.Structs)
		ng += len(recs[i].Decls.Globals)
	}
	d := &Decls{Funcs: make(map[string]FuncEntry, nf), Structs: make(map[string]*StructInfo, ns),
		Globals: make(map[string]*GlobalInfo, ng)}
	for i := range recs {
		r := &recs[i]
		for _, f := range r.Decls.Funcs {
			if _, seen := d.Funcs[f.Name]; f.Body || !seen {
				d.Funcs[f.Name] = FuncEntry{File: r.Path, Body: f.Body}
			}
		}
		for j := range r.Decls.Structs {
			d.Structs[r.Decls.Structs[j].Name] = &r.Decls.Structs[j]
		}
		for j := range r.Decls.Globals {
			d.Globals[r.Decls.Globals[j].Name] = &r.Decls.Globals[j]
		}
	}
	return d
}

// fileDecls extracts a parsed file's declaration record. Every slice is
// allocated at its final size.
func fileDecls(f *cast.File) FileDecls {
	var nf, ns, ng int
	for _, d := range f.Decls {
		switch d.(type) {
		case *cast.FuncDef:
			nf++
		case *cast.StructDecl:
			ns++
		case *cast.VarDecl:
			ng++
		}
	}
	var out FileDecls
	if nf > 0 {
		out.Funcs = make([]FuncDecl, 0, nf)
	}
	if ns > 0 {
		out.Structs = make([]StructInfo, 0, ns)
	}
	if ng > 0 {
		out.Globals = make([]GlobalInfo, 0, ng)
	}
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *cast.FuncDef:
			out.Funcs = append(out.Funcs, FuncDecl{Name: x.Name, Body: x.Body != nil})
		case *cast.StructDecl:
			s := StructInfo{Name: x.Name}
			if len(x.Fields) > 0 {
				s.Fields = make([]FieldInfo, len(x.Fields))
				for i, f := range x.Fields {
					s.Fields[i] = FieldInfo{Name: f.Name, Struct: f.Type.StructName()}
				}
			}
			out.Structs = append(out.Structs, s)
		case *cast.VarDecl:
			g := GlobalInfo{Name: x.Name, Struct: x.Type.StructName()}
			for _, fi := range x.Inits {
				if id, ok := fi.Value.(*cast.Ident); ok {
					if g.Inits == nil {
						g.Inits = make([]InitInfo, 0, len(x.Inits))
					}
					g.Inits = append(g.Inits, InitInfo{Field: fi.Field, Ident: id.Name})
				}
			}
			out.Globals = append(out.Globals, g)
		}
	}
	return out
}

// CallbackBinding records a designated-initializer binding like
// `.probe = foo_probe` inside a driver-ops structure (P6 input). Acquire and
// Release name declared functions; "" means the field is unbound or bound to
// a name the corpus does not declare.
type CallbackBinding struct {
	Pair             apidb.CallbackPair
	Acquire, Release string
}

// CallbackBindings resolves driver-ops designated initializers against the
// DB's inter-paired callback table, globals in name order.
func (d *Decls) CallbackBindings(db *apidb.DB) []CallbackBinding {
	names := make([]string, 0, len(d.Globals))
	for n := range d.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []CallbackBinding
	for _, n := range names {
		g := d.Globals[n]
		if len(g.Inits) == 0 {
			continue
		}
		for _, pair := range db.Callbacks() {
			if pair.Struct != g.Struct {
				continue
			}
			cb := CallbackBinding{Pair: pair}
			for _, in := range g.Inits {
				name := in.Ident
				if _, ok := d.Funcs[name]; !ok {
					name = ""
				}
				switch in.Field {
				case pair.Acquire:
					cb.Acquire = name
				case pair.Release:
					cb.Release = name
				}
			}
			if cb.Acquire != "" || cb.Release != "" {
				out = append(out, cb)
			}
		}
	}
	return out
}

// Records projects the artifact onto its files' records, in file order. A
// file's declaration record comes with its AST, so a decoded artifact must
// be assembled (or hydrated) first; a file without an AST is left out.
func (a *ShardArtifact) Records() []FileRecord {
	out := make([]FileRecord, 0, len(a.Files))
	for _, af := range a.Files {
		if af.file == nil {
			continue
		}
		out = append(out, FileRecord{Path: af.Path, SourceFP: af.fp, Obs: af.Obs, Decls: af.decls})
	}
	return out
}

// EncodeRecords serializes file records, the payload of the manager's
// round-1 reply, which carries no token: the record count, then per record
// its path and SourceFP ids and its body (see encodeRecordBody).
func EncodeRecords(recs []FileRecord) []byte {
	var t bincodec.Table
	w := bincodec.NewWriter(256 * (len(recs) + 1))
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		w.Ref(&t, r.Path)
		w.Ref(&t, r.SourceFP)
		encodeRecordBody(w, &t, &r.Obs, &r.Decls)
	}
	return bincodec.Tabled(recordsFormat, &t, w)
}

// encodeRecordBody writes what the exchange reads of one record: its
// observation (codec.go) and its declarations — functions (name id, body
// byte), structs (name id, fields as name and struct ids), globals (name
// and struct ids, initializers as field and identifier ids), each list
// count-prefixed.
func encodeRecordBody(w *bincodec.Writer, t *bincodec.Table, o *apidb.FileObs, d *FileDecls) {
	encodeFileObs(w, t, o)
	w.Uvarint(uint64(len(d.Funcs)))
	for _, f := range d.Funcs {
		w.Ref(t, f.Name)
		w.Bool(f.Body)
	}
	w.Uvarint(uint64(len(d.Structs)))
	for _, s := range d.Structs {
		w.Ref(t, s.Name)
		w.Uvarint(uint64(len(s.Fields)))
		for _, f := range s.Fields {
			w.Ref(t, f.Name)
			w.Ref(t, f.Struct)
		}
	}
	w.Uvarint(uint64(len(d.Globals)))
	for _, g := range d.Globals {
		w.Ref(t, g.Name)
		w.Ref(t, g.Struct)
		w.Uvarint(uint64(len(g.Inits)))
		for _, fi := range g.Inits {
			w.Ref(t, fi.Field)
			w.Ref(t, fi.Ident)
		}
	}
}

// recordFP fingerprints one record as the exchange reads it: its body
// (encodeRecordBody) with every string written inline, length-prefixed,
// rather than through a string table, and without path or SourceFP. The
// manager ships records in this encoding and matches Analyze byte for
// byte, so the encoding holds every input of ExchangeRecords, and equal
// fingerprints mean equal inputs. The fingerprint never leaves memory.
func recordFP(o *apidb.FileObs, d *FileDecls) string {
	w := bincodec.NewWriter(512)
	encodeRecordBody(w, nil, o, d)
	sum := sha256.Sum256(w.Bytes())
	return string(sum[:])
}

// RecordsFP fingerprints the artifact's records as the exchange reads them:
// every file's path and record fingerprint, in the path order
// ExchangeRecords replays them. Equal fingerprints over equal DB states
// give equal exchanges. It is "" when a file has no record fingerprint,
// which only a build with a cache computes.
func (a *ShardArtifact) RecordsFP() string {
	parts := make([]string, 0, 2*len(a.Files))
	for _, af := range a.Files {
		if af.file == nil {
			continue
		}
		if af.recFP == "" {
			return ""
		}
		parts = append(parts, af.Path, af.recFP)
	}
	return analysiscache.KeyOf(parts...)
}

// DecodeRecords parses a payload written by EncodeRecords; it returns
// bincodec.ErrCorrupt on any malformed input.
func DecodeRecords(data []byte) ([]FileRecord, error) {
	r := bincodec.OpenTabled(data, recordsFormat)
	n := r.UCount()
	var recs []FileRecord
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := FileRecord{Path: r.Ref(), SourceFP: r.Ref(), Obs: decodeFileObs(r)}
		nf := r.UCount()
		for j := 0; j < nf && r.Err() == nil; j++ {
			rec.Decls.Funcs = append(rec.Decls.Funcs, FuncDecl{Name: r.Ref(), Body: r.Bool()})
		}
		ns := r.UCount()
		for j := 0; j < ns && r.Err() == nil; j++ {
			s := StructInfo{Name: r.Ref()}
			nfl := r.UCount()
			for k := 0; k < nfl && r.Err() == nil; k++ {
				s.Fields = append(s.Fields, FieldInfo{Name: r.Ref(), Struct: r.Ref()})
			}
			rec.Decls.Structs = append(rec.Decls.Structs, s)
		}
		ng := r.UCount()
		for j := 0; j < ng && r.Err() == nil; j++ {
			g := GlobalInfo{Name: r.Ref(), Struct: r.Ref()}
			ni := r.UCount()
			for k := 0; k < ni && r.Err() == nil; k++ {
				g.Inits = append(g.Inits, InitInfo{Field: r.Ref(), Ident: r.Ref()})
			}
			rec.Decls.Globals = append(rec.Decls.Globals, g)
		}
		recs = append(recs, rec)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}
