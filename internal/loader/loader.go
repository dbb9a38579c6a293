// Package loader collects C sources and headers from directories for the
// analysis tools, with deterministic ordering.
package loader

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cpg"
)

// Tree is a loaded source tree.
type Tree struct {
	Sources []cpg.Source
	Headers map[string]string
}

// LoadDirs walks the roots recursively, loading .c files as sources and .h
// files as headers. Paths in the result are relative to the respective root
// when the file lies underneath it (keeping subsystem/module structure
// intact for reporting), else absolute. Only regular files are loaded: a
// symbolic link named like a source or header is skipped, as the watch
// loop skips it (package watch), since an edit to its target, which may
// lie outside every root, is an edit no watch of the roots can see.
func LoadDirs(roots ...string) (*Tree, error) {
	t := &Tree{Headers: map[string]string{}}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			ext := filepath.Ext(path)
			if (ext != ".c" && ext != ".h") || !d.Type().IsRegular() {
				return nil
			}
			content, rerr := readFileString(path)
			if rerr != nil {
				return rerr
			}
			rel := path
			if r, e := filepath.Rel(root, path); e == nil && !strings.HasPrefix(r, "..") {
				rel = filepath.ToSlash(r)
			}
			if ext == ".c" {
				t.Sources = append(t.Sources, cpg.Source{Path: rel, Content: content})
			} else {
				t.Headers[rel] = content
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(t.Sources, func(i, j int) bool { return t.Sources[i].Path < t.Sources[j].Path })
	return t, nil
}

// Reload returns the tree LoadDirs(roots...) would load now, given prev —
// LoadDirs' result over the same roots — and the files that changed since
// prev was read, named as a walk of the roots names them (the watch
// poller's Diff). It re-reads only those files and shares every other
// file's content with prev, which it leaves untouched. Anything it cannot
// map with certainty — an added or removed file, one that is no longer a
// regular file, a path under no root or under several, a name another
// root also provides, an extension other than .c/.h — makes it fall back
// to LoadDirs, as does a nil prev. The
// result equals LoadDirs' only if changed is complete: a file written
// without being reported keeps its content from prev.
func Reload(prev *Tree, roots []string, changed []string) (*Tree, error) {
	if prev == nil {
		return LoadDirs(roots...)
	}
	t := &Tree{Sources: append([]cpg.Source(nil), prev.Sources...), Headers: maps.Clone(prev.Headers)}
	for _, path := range changed {
		rel, ok := relToOneRoot(roots, path)
		if !ok {
			return LoadDirs(roots...)
		}
		if info, err := os.Lstat(path); err != nil || !info.Mode().IsRegular() {
			return LoadDirs(roots...) // removed, or no longer a regular file
		}
		content, err := readFileString(path)
		if err != nil {
			return LoadDirs(roots...)
		}
		switch filepath.Ext(path) {
		case ".c":
			i := sort.Search(len(t.Sources), func(i int) bool { return t.Sources[i].Path >= rel })
			if i == len(t.Sources) || t.Sources[i].Path != rel {
				return LoadDirs(roots...) // added
			}
			t.Sources[i].Content = content
		case ".h":
			if _, ok := t.Headers[rel]; !ok {
				return LoadDirs(roots...) // added
			}
			t.Headers[rel] = content
		default:
			return LoadDirs(roots...)
		}
	}
	return t, nil
}

// relToOneRoot returns path relative to the one root it lies under, as
// LoadDirs names it. It fails when the path lies under no root, or when
// the same relative name exists under another root too (LoadDirs would
// load it twice, or let the later root's header win).
func relToOneRoot(roots []string, path string) (string, bool) {
	rel, found := "", false
	for _, root := range roots {
		r, err := filepath.Rel(root, path)
		if err != nil || strings.HasPrefix(r, "..") {
			continue
		}
		if found {
			return "", false
		}
		rel, found = r, true
	}
	if !found {
		return "", false
	}
	for _, root := range roots {
		if other := filepath.Join(root, rel); filepath.Clean(path) != other {
			if _, err := os.Lstat(other); err == nil {
				return "", false
			}
		}
	}
	return filepath.ToSlash(rel), true
}

// readFileString returns the file's content as read now. It copies: the
// watch loop holds a tree across polls while the files under it are edited
// in place, so the content must not alias the file.
func readFileString(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// WriteTree writes sources and headers under dir, creating directories as
// needed (the refgen output path).
func WriteTree(dir string, sources []cpg.Source, headers map[string]string) error {
	write := func(rel, content string) error {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(content), 0o644)
	}
	for _, s := range sources {
		if err := write(s.Path, s.Content); err != nil {
			return err
		}
	}
	for p, s := range headers {
		if err := write(p, s); err != nil {
			return err
		}
	}
	return nil
}
