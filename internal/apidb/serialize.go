package apidb

import (
	"encoding/json"
	"fmt"
	"io"
)

// fileFormat is the JSON shape of a knowledge-base extension file.
type fileFormat struct {
	// APIs, Loops and Callbacks extend (or override, by name) the seeded
	// knowledge base.
	APIs      []apiJSON      `json:"apis,omitempty"`
	Loops     []loopJSON     `json:"smartloops,omitempty"`
	Callbacks []callbackJSON `json:"callback_pairs,omitempty"`
	Structs   []string       `json:"refcounted_structs,omitempty"`
}

type apiJSON struct {
	Name          string `json:"name"`
	Op            string `json:"op"` // "inc" | "dec"
	Class         string `json:"class,omitempty"`
	ObjArg        *int   `json:"obj_arg,omitempty"` // omitted = return-carried
	ReturnsRef    bool   `json:"returns_ref,omitempty"`
	Pair          string `json:"pair,omitempty"`
	IncOnError    bool   `json:"inc_on_error,omitempty"`
	MayReturnNull bool   `json:"may_return_null,omitempty"`
	CursorArg     *int   `json:"cursor_arg,omitempty"`
	MayFree       bool   `json:"may_free,omitempty"`
	Struct        string `json:"struct,omitempty"`
}

type loopJSON struct {
	Name        string `json:"name"`
	IterArg     int    `json:"iter_arg"`
	PutAPI      string `json:"put_api"`
	EmbeddedAPI string `json:"embedded_api,omitempty"`
}

type callbackJSON struct {
	Struct  string `json:"struct"`
	Acquire string `json:"acquire"`
	Release string `json:"release"`
}

// LoadExtensions reads a JSON extension file and merges it into the DB.
// Entries override seeded ones with the same name, so a deployment can both
// add site-specific APIs and correct the defaults.
func (db *DB) LoadExtensions(r io.Reader) error {
	var f fileFormat
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("apidb: %w", err)
	}
	for _, a := range f.APIs {
		entry, err := a.toAPI()
		if err != nil {
			return err
		}
		db.AddAPI(entry)
	}
	for _, l := range f.Loops {
		if l.Name == "" || l.PutAPI == "" {
			return fmt.Errorf("apidb: smartloop needs name and put_api")
		}
		db.AddLoop(&SmartLoop{
			Name: l.Name, IterArg: l.IterArg,
			PutAPI: l.PutAPI, EmbeddedAPI: l.EmbeddedAPI,
		})
	}
	for _, cb := range f.Callbacks {
		if cb.Struct == "" || cb.Acquire == "" || cb.Release == "" {
			return fmt.Errorf("apidb: callback pair needs struct, acquire and release")
		}
		db.callbacks = append(db.callbacks, CallbackPair(cb))
	}
	for _, s := range f.Structs {
		db.AddRefStruct(s)
	}
	return nil
}

func (a apiJSON) toAPI() (*API, error) {
	if a.Name == "" {
		return nil, fmt.Errorf("apidb: API entry without a name")
	}
	entry := &API{
		Name: a.Name, ReturnsRef: a.ReturnsRef, Pair: a.Pair,
		IncOnError: a.IncOnError, MayReturnNull: a.MayReturnNull,
		MayFree: a.MayFree, Struct: a.Struct, ObjArg: -1, DecArgObj: -1,
	}
	switch a.Op {
	case "inc":
		entry.Op = OpInc
	case "dec":
		entry.Op = OpDec
	default:
		return nil, fmt.Errorf("apidb: API %s has op %q (want inc or dec)", a.Name, a.Op)
	}
	switch a.Class {
	case "", "specific":
		entry.Class = Specific
	case "general":
		entry.Class = General
	case "embedded", "refcounting-embedded":
		entry.Class = Embedded
	default:
		return nil, fmt.Errorf("apidb: API %s has class %q", a.Name, a.Class)
	}
	if a.ObjArg != nil {
		entry.ObjArg = *a.ObjArg
	}
	if a.CursorArg != nil {
		entry.HasDecArg = true
		entry.DecArgObj = *a.CursorArg
	}
	return entry, nil
}

// SaveExtensions writes the complete current knowledge base as an extension
// file (useful to dump the defaults as a starting point for editing).
func (db *DB) SaveExtensions(w io.Writer) error {
	var f fileFormat
	for _, a := range db.APIs() {
		j := apiJSON{
			Name: a.Name, ReturnsRef: a.ReturnsRef, Pair: a.Pair,
			IncOnError: a.IncOnError, MayReturnNull: a.MayReturnNull,
			MayFree: a.MayFree, Struct: a.Struct,
		}
		switch a.Op {
		case OpInc:
			j.Op = "inc"
		case OpDec:
			j.Op = "dec"
		default:
			continue
		}
		switch a.Class {
		case General:
			j.Class = "general"
		case Embedded:
			j.Class = "embedded"
		default:
			j.Class = "specific"
		}
		if a.ObjArg >= 0 {
			v := a.ObjArg
			j.ObjArg = &v
		}
		if a.HasDecArg {
			v := a.DecArgObj
			j.CursorArg = &v
		}
		f.APIs = append(f.APIs, j)
	}
	for _, l := range db.Loops() {
		f.Loops = append(f.Loops, loopJSON{
			Name: l.Name, IterArg: l.IterArg,
			PutAPI: l.PutAPI, EmbeddedAPI: l.EmbeddedAPI,
		})
	}
	for _, cb := range db.Callbacks() {
		f.Callbacks = append(f.Callbacks, callbackJSON(cb))
	}
	f.Structs = db.RefStructs()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
