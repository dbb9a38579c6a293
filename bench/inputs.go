package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/loader"
)

// tree is one workload's generated input: the corpus (the oracle's ground
// truth) written out as a source directory.
type tree struct {
	corpus  *corpus.Corpus
	dir     string
	sources []cpg.Source
	headers map[string]string
}

// writeTree generates the corpus for (seed, scale) and writes it under dir.
func writeTree(dir string, seed int64, scale int) (*tree, error) {
	c := corpus.Generate(corpus.Spec{Seed: seed, Scale: scale})
	t := &tree{corpus: c, dir: dir, headers: c.Headers}
	for _, f := range c.Files {
		t.sources = append(t.sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	if err := loader.WriteTree(dir, t.sources, t.headers); err != nil {
		return nil, fmt.Errorf("writing tree: %w", err)
	}
	return t, nil
}

// writeAtomic replaces path through a rename, so a poller never sees a
// half-written file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".refbench-tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// editComment is the text an edit appends: a comment at end of file changes
// the file's bytes (so every cache key over it) but not a single report.
func editComment(n int) string {
	return fmt.Sprintf("\n/* refbench edit %d */\n", n)
}

// schedule draws which operations of a stream are of the rarer kind: k at
// seeded positions in every block of n, so every stretch of a run has the
// same mix and the mix does not vary from seed to seed.
type schedule struct {
	rng   *rand.Rand
	n, k  int
	block []bool
}

func (s *schedule) next() bool {
	if len(s.block) == 0 {
		s.block = make([]bool, s.n)
		for _, i := range s.rng.Perm(s.n)[:s.k] {
			s.block[i] = true
		}
	}
	b := s.block[0]
	s.block = s.block[1:]
	return b
}

// editor applies the edit-loop stream to a tree on disk. Four edits in five
// append a unique comment to a random .c file (a new tree state: unit
// miss); one in five undoes the most recent edit still applied (a state
// already analyzed: unit hit).
type editor struct {
	t       *tree
	rng     *rand.Rand
	reverts schedule
	n       int
	undos   []undo
}

type undo struct {
	path    string
	content []byte
}

func newEditor(t *tree, seed int64) *editor {
	rng := rand.New(rand.NewSource(seed))
	return &editor{t: t, rng: rng, reverts: schedule{rng: rng, n: 5, k: 1}}
}

// next applies one edit and reports whether it was a revert.
func (e *editor) next() (revert bool, err error) {
	if e.reverts.next() && len(e.undos) > 0 {
		u := e.undos[len(e.undos)-1]
		e.undos = e.undos[:len(e.undos)-1]
		return true, writeAtomic(u.path, u.content)
	}
	src := e.t.sources[e.rng.Intn(len(e.t.sources))]
	path := filepath.Join(e.t.dir, filepath.FromSlash(src.Path))
	old, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	e.undos = append(e.undos, undo{path: path, content: old})
	e.n++
	return false, writeAtomic(path, append(append([]byte(nil), old...), editComment(e.n)...))
}

// variants is the served-mix request plan: 3 requests in 20 send a new
// variant, the base corpus with one comment appended to one random file
// (15%); the others repeat a variant an earlier request sent (85%).
// Variant 0 is the base corpus itself.
type variants struct {
	rng   *rand.Rand
	fresh schedule
	files int
	file  []int // file[v] is the source index variant v edits; -1 for the base
}

func newVariants(seed int64, files int) *variants {
	rng := rand.New(rand.NewSource(seed))
	return &variants{rng: rng, fresh: schedule{rng: rng, n: 20, k: 3}, files: files, file: []int{-1}}
}

// next returns the variant the next request sends.
func (v *variants) next() int {
	if v.fresh.next() {
		v.file = append(v.file, v.rng.Intn(v.files))
		return len(v.file) - 1
	}
	return v.rng.Intn(len(v.file))
}

// bodies builds /v1/analyze request bodies for variants without re-encoding
// the corpus: the base body is encoded once, with the offset where each
// source's content string closes, and a variant splices its escaped comment
// in at that offset.
type bodies struct {
	base []byte
	ends []int
}

func newBodies(t *tree) (*bodies, error) {
	hdr, err := json.Marshal(t.headers)
	if err != nil {
		return nil, err
	}
	b := &bodies{}
	b.base = fmt.Appendf(nil, `{"json":true,"confirm":true,"headers":%s,"sources":[`, hdr)
	for i, s := range t.sources {
		if i > 0 {
			b.base = append(b.base, ',')
		}
		path, _ := json.Marshal(s.Path) // marshaling a string cannot fail
		content, _ := json.Marshal(s.Content)
		b.base = fmt.Appendf(b.base, `{"path":%s,"content":%s`, path, content)
		b.ends = append(b.ends, len(b.base)-1)
		b.base = append(b.base, '}')
	}
	b.base = append(b.base, "]}"...)
	return b, nil
}

// body returns the request body for variant v of plan vs.
func (b *bodies) body(vs *variants, v int) []byte {
	f := vs.file[v]
	if f < 0 {
		return b.base
	}
	esc, _ := json.Marshal(editComment(v))
	esc = esc[1 : len(esc)-1]
	out := make([]byte, 0, len(b.base)+len(esc))
	out = append(out, b.base[:b.ends[f]]...)
	out = append(out, esc...)
	return append(out, b.base[b.ends[f]:]...)
}
