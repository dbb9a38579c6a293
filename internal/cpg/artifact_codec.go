package cpg

import (
	"repro/internal/bincodec"
)

// Binary codec for ShardArtifact — the payload workers stream back to the
// manager: the file count, then per file its path id and its record
// (codec.go), under one string table and one origin-chain table for the
// whole shard (headers expand into each TU, so cross-file repetition is even
// heavier than within one file).

// EncodeShardArtifact serializes an artifact built with token retention
// (BuildArtifactContext with retain=true, or one that itself came out of
// DecodeShardArtifact). It panics if a file carries an AST but no retained
// token stream — such an artifact was built for in-process use and cannot be
// exported.
func EncodeShardArtifact(a *ShardArtifact) []byte {
	in := newInterner()
	nTok := 0
	for _, af := range a.Files {
		nTok += len(af.Tokens)
	}
	body := bincodec.NewWriter(64 + nTok*8)
	body.Uvarint(uint64(len(a.Files)))
	for _, af := range a.Files {
		if af.file != nil && af.Tokens == nil {
			panic("cpg: EncodeShardArtifact on an artifact built without token retention")
		}
		// Only preprocessor errors travel; parse errors regenerate on reparse.
		cppErrs := make([]string, af.cppN)
		for i, e := range af.errs[:af.cppN] {
			cppErrs[i] = e.Error()
		}
		body.Ref(&in.strs, af.Path)
		encodeRecord(body, in, af.Tokens, cppErrs, &af.Obs)
	}
	return bincodec.Tabled(artifactFormat, &in.strs, in.chainSection(), body)
}

// DecodeShardArtifact parses data into a ShardArtifact whose files carry
// token streams but no ASTs (assembly reparses them). It returns
// bincodec.ErrCorrupt on any malformed input.
func DecodeShardArtifact(data []byte) (*ShardArtifact, error) {
	r := bincodec.OpenTabled(data, artifactFormat)
	chains := readChains(r)
	nFiles := r.UCount()
	a := &ShardArtifact{}
	for i := 0; i < nFiles && r.Err() == nil; i++ {
		af := &ArtFile{Path: r.Ref()}
		var cppErrs []string
		af.Tokens, cppErrs, af.Obs = decodeRecord(r, chains)
		af.errs, af.cppN = cppErrors(cppErrs), len(cppErrs)
		a.Files = append(a.Files, af)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}
