package cpg

import (
	"repro/internal/bincodec"
)

// Binary codec for ShardArtifact — the payload workers stream back to the
// manager: the per-file records of codec.go, each after its path, under one
// table header for the whole shard (headers expand into each TU, so
// cross-file repetition is even heavier than within one file).

// saMagic identifies a shard-artifact payload; the last byte is the version.
const saMagic uint32 = 'S' | 'H'<<8 | 'A'<<16 | 2<<24

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
	body := bincodec.NewWriter(64 + nTok*21)
	body.U32(uint32(len(a.Files)))
	for _, af := range a.Files {
		if af.file != nil && af.Tokens == nil {
			panic("cpg: EncodeShardArtifact on an artifact built without token retention")
		}
		// Only preprocessor errors travel; parse errors regenerate on reparse.
		cppErrs := make([]string, af.cppN)
		for i, e := range af.errs[:af.cppN] {
			cppErrs[i] = e.Error()
		}
		body.U32(in.str(af.Path))
		encodeRecord(body, in, af.Tokens, cppErrs, &af.Obs)
	}
	return frame(saMagic, in, body)
}

// DecodeShardArtifact parses data into a ShardArtifact whose files carry
// token streams but no ASTs (assembly reparses them). It returns
// bincodec.ErrCorrupt on any malformed input.
func DecodeShardArtifact(data []byte) (*ShardArtifact, error) {
	r, dt := readFrame(data, saMagic)
	if dt == nil {
		return nil, r.Err()
	}
	nFiles := r.Count()
	a := &ShardArtifact{}
	for i := 0; i < nFiles && r.Err() == nil; i++ {
		af := &ArtFile{Path: dt.str(r)}
		var cppErrs []string
		af.Tokens, cppErrs, af.Obs = decodeRecord(r, dt)
		af.errs, af.cppN = cppErrors(cppErrs), len(cppErrs)
		a.Files = append(a.Files, af)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}
