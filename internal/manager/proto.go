// Package manager runs the two-round pipeline across worker processes,
// syz-manager style: the manager owns the corpus, split into one
// byte-balanced shard per worker (core.Partition), and workers are
// re-executed copies of the binary fed over pipes. In round 1 a worker
// runs the front end over its shard, keeps the shard's ASTs, and replies
// with the shard's file records (observations and declarations, no token).
// Every process then runs the same exchange over all the records; in round
// 2 each worker checks its shard's files and replies with their checker
// cells and the facts P6 needs, and the manager finishes the run (see
// core.Finish). One fault rule covers both rounds: a shard whose worker
// failed to start or died runs inline in the manager through the same core
// functions.
package manager

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/bincodec"
	"repro/internal/cpg"
)

// The wire protocol is deliberately minimal: length-prefixed frames over the
// worker's stdin/stdout, each framing one bincodec-encoded message. The
// conversation is lockstep per worker: init, one shard/records pair (round
// 1), one check/result pair (round 2). There is no error message kind: a
// worker that cannot reply, or is sent frames in any other order, exits
// nonzero, and the manager treats any read/decode failure as a worker death,
// so protocol errors and crashes share one recovery path.
const (
	kInit    = 1 // manager→worker: knobs, checker selection, shared header map
	kShard   = 2 // manager→worker: round 1, the worker's shard's sources
	kRecords = 3 // worker→manager: counters + the shard's file records
	kCheck   = 4 // manager→worker: round 2, the file records of every other shard
	kResult  = 5 // worker→manager: counters + cells + facts of the worker's files
)

// maxFrame bounds a frame read so a corrupt length prefix cannot trigger a
// giant allocation. The largest frame is a shard's sources (round 1's
// request), so the bound is generous.
const maxFrame = 1 << 30

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame returns io.EOF only on a clean boundary (no partial header);
// a frame truncated mid-read surfaces as io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("manager: frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// reader opens a message of the given kind, failing the reader when the
// kind byte differs.
func reader(b []byte, kind uint8) *bincodec.Reader {
	r := bincodec.NewReader(b)
	if r.U8() != kind {
		r.Fail()
	}
	return r
}

type initMsg struct {
	Workers int
	// CacheDir/CacheMem, when CacheDir is non-empty, tell the worker to
	// open its own handle on the shared tiered cache, so per-file
	// front-end, facts and report entries are reused across shards and
	// runs. Every worker (and the manager, for inline work) opens the same
	// directory; the cache's pack-file layout is multi-process safe.
	CacheDir string
	CacheMem int
	// ConfigFP and Checkers are the run's core.Options fields of the same
	// names, which round 2's cache keys and checker engine need.
	ConfigFP string
	Checkers []string
	Headers  map[string]string
}

func encodeInit(m initMsg) []byte {
	w := bincodec.NewWriter(64)
	w.U8(kInit)
	w.U32(uint32(m.Workers))
	w.String(m.CacheDir)
	w.U32(uint32(m.CacheMem))
	w.String(m.ConfigFP)
	w.Strings(m.Checkers)
	keys := make([]string, 0, len(m.Headers))
	for k := range m.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.String(m.Headers[k])
	}
	return w.Bytes()
}

func decodeInit(b []byte) (initMsg, error) {
	r := reader(b, kInit)
	m := initMsg{Workers: int(r.U32())}
	m.CacheDir = r.String()
	m.CacheMem = int(r.U32())
	m.ConfigFP = r.String()
	m.Checkers = r.Strings()
	n := r.Count()
	if n > 0 {
		m.Headers = make(map[string]string, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m.Headers[k] = r.String()
	}
	if err := r.Done(); err != nil {
		return initMsg{}, err
	}
	return m, nil
}

type shardMsg struct {
	Sources []cpg.Source
}

func encodeShard(m shardMsg) []byte {
	sz := 16
	for _, s := range m.Sources {
		sz += len(s.Path) + len(s.Content) + 16
	}
	w := bincodec.NewWriter(sz)
	w.U8(kShard)
	w.U32(uint32(len(m.Sources)))
	for _, s := range m.Sources {
		w.String(s.Path)
		w.String(s.Content)
	}
	return w.Bytes()
}

func decodeShard(b []byte) (shardMsg, error) {
	r := reader(b, kShard)
	var m shardMsg
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Sources = append(m.Sources, cpg.Source{Path: r.String(), Content: r.String()})
	}
	if err := r.Done(); err != nil {
		return shardMsg{}, err
	}
	return m, nil
}

// counter is one of a worker's counters for the work of one reply (the
// worker records each request into a fresh trace).
type counter struct {
	Name  string
	Value int64
}

func encodeCounters(w *bincodec.Writer, cs []counter) {
	w.U32(uint32(len(cs)))
	for _, c := range cs {
		w.String(c.Name)
		w.U64(uint64(c.Value))
	}
}

func decodeCounters(r *bincodec.Reader) []counter {
	n := r.Count()
	var cs []counter
	for i := 0; i < n && r.Err() == nil; i++ {
		cs = append(cs, counter{Name: r.String(), Value: int64(r.U64())})
	}
	return cs
}

type recordsMsg struct {
	Counters []counter
	Records  []byte // cpg.EncodeRecords bytes
}

func encodeRecords(m recordsMsg) []byte {
	w := bincodec.NewWriter(64 + len(m.Records))
	w.U8(kRecords)
	encodeCounters(w, m.Counters)
	w.String(string(m.Records))
	return w.Bytes()
}

func decodeRecords(b []byte) (recordsMsg, error) {
	r := reader(b, kRecords)
	m := recordsMsg{Counters: decodeCounters(r)}
	m.Records = []byte(r.String())
	if err := r.Done(); err != nil {
		return recordsMsg{}, err
	}
	return m, nil
}

// checkMsg is the round-2 request: the records payload of every other
// shard, as the round-1 replies (or the manager, for shards it ran itself)
// encoded them. The worker adds its own shard's records.
type checkMsg struct {
	Records [][]byte
}

func encodeCheck(m checkMsg) []byte {
	sz := 8
	for _, p := range m.Records {
		sz += 4 + len(p)
	}
	w := bincodec.NewWriter(sz)
	w.U8(kCheck)
	w.U32(uint32(len(m.Records)))
	for _, p := range m.Records {
		w.String(string(p))
	}
	return w.Bytes()
}

func decodeCheck(b []byte) (checkMsg, error) {
	r := reader(b, kCheck)
	n := r.Count()
	m := checkMsg{Records: make([][]byte, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Records = append(m.Records, []byte(r.String()))
	}
	if err := r.Done(); err != nil {
		return checkMsg{}, err
	}
	return m, nil
}

// resultMsg is the round-2 reply: core.ShardResult.Encode's two payloads.
type resultMsg struct {
	Counters []counter
	Cells    []byte
	Facts    []byte
}

func encodeResult(m resultMsg) []byte {
	w := bincodec.NewWriter(64 + len(m.Cells) + len(m.Facts))
	w.U8(kResult)
	encodeCounters(w, m.Counters)
	w.String(string(m.Cells))
	w.String(string(m.Facts))
	return w.Bytes()
}

func decodeResult(b []byte) (resultMsg, error) {
	r := reader(b, kResult)
	m := resultMsg{Counters: decodeCounters(r)}
	m.Cells = []byte(r.String())
	m.Facts = []byte(r.String())
	if err := r.Done(); err != nil {
		return resultMsg{}, err
	}
	return m, nil
}
