package manager

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/clex"
	"repro/internal/core"
	"repro/internal/cpg"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: %v != %v", i, got, p)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("clean boundary: err = %v, want io.EOF", err)
	}

	// A frame truncated mid-body must not read as EOF.
	buf.Reset()
	if err := writeFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := readFrame(trunc); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}

	// A hostile length prefix must be rejected, not allocated.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hostile)); err == nil || err == io.EOF {
		t.Errorf("hostile length: err = %v, want limit error", err)
	}
}

func TestInitMsgRoundTrip(t *testing.T) {
	for _, m := range []initMsg{
		{Workers: 4, Headers: map[string]string{"a.h": "x", "b.h": "y"}},
		{Workers: 2, CacheDir: "/c", CacheMem: 16, ConfigFP: "fp", Checkers: []string{"P1", "P6"}},
		{Workers: 0},
	} {
		got, err := decodeInit(encodeInit(m))
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %+v -> %+v", m, got)
		}
	}
	if _, err := decodeInit([]byte{kShard}); err == nil {
		t.Error("wrong kind accepted as init")
	}
	if _, err := decodeInit(nil); err == nil {
		t.Error("empty payload accepted as init")
	}
}

func TestShardMsgRoundTrip(t *testing.T) {
	m := shardMsg{Sources: []cpg.Source{
		{Path: "a.c", Content: "int x;"},
		{Path: "b.c", Content: ""},
	}}
	got, err := decodeShard(encodeShard(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	enc := encodeShard(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeShard(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded cleanly", cut)
		}
	}
}

// TestRecordsMsgRoundTrip pins the round-1 reply frame, and that every
// truncation of it fails to decode.
func TestRecordsMsgRoundTrip(t *testing.T) {
	m := recordsMsg{Counters: []counter{{"frontend.cache.hit", 2}, {"frontend.cache.miss", 1}},
		Records: []byte{9, 8, 7}}
	enc := encodeRecords(m)
	got, err := decodeRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeRecords(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded cleanly", cut)
		}
	}
	if _, err := decodeRecords(encodeShard(shardMsg{})); err == nil {
		t.Error("wrong kind accepted as records")
	}
}

// TestCheckMsgRoundTrip pins the round-2 request frame.
func TestCheckMsgRoundTrip(t *testing.T) {
	m := checkMsg{Records: [][]byte{{1, 2}, {3}, {4, 5, 6}}}
	enc := encodeCheck(m)
	got, err := decodeCheck(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeCheck(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded cleanly", cut)
		}
	}
}

// TestResultMsgRoundTrip pins the round-2 reply frame.
func TestResultMsgRoundTrip(t *testing.T) {
	m := resultMsg{Counters: []counter{{"cache.reports.miss", 4}}, Cells: []byte{1}, Facts: []byte{2, 3}}
	enc := encodeResult(m)
	got, err := decodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip %+v -> %+v", m, got)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeResult(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded cleanly", cut)
		}
	}
	if _, err := decodeResult(encodeCheck(checkMsg{})); err == nil {
		t.Error("wrong kind accepted as result")
	}
}

// TestRound1ReplyCarriesNoToken pins that no token crosses the wire: a real
// shard's round-1 reply decodes to file records, and no type reachable from
// a record is (or holds) a clex.Token.
func TestRound1ReplyCarriesNoToken(t *testing.T) {
	if path := tokenPath(reflect.TypeOf(cpg.FileRecord{}), map[reflect.Type]bool{}); path != "" {
		t.Fatalf("cpg.FileRecord reaches clex.Token via %s", path)
	}
	srcs, headers := managerCorpus()
	req := core.Request{Headers: headers, Options: core.Options{Workers: 1}}
	art, own, reply, err := localShard(context.Background(), req, encodeShard(shardMsg{Sources: srcs}))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := decodeRecords(reply)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cpg.DecodeRecords(msg.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, art.Records()) || !reflect.DeepEqual(recs, own) {
		t.Error("decoded records differ from the shard's")
	}
	if len(recs) != len(srcs) {
		t.Errorf("records = %d, want %d", len(recs), len(srcs))
	}
}

// tokenPath returns a field path from t to clex.Token, or "".
func tokenPath(t reflect.Type, seen map[reflect.Type]bool) string {
	if t == reflect.TypeOf(clex.Token{}) {
		return t.String()
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return tokenPath(t.Elem(), seen)
	case reflect.Map:
		if p := tokenPath(t.Key(), seen); p != "" {
			return p
		}
		return tokenPath(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := tokenPath(t.Field(i).Type, seen); p != "" {
				return t.Name() + "." + t.Field(i).Name + " → " + p
			}
		}
	}
	return ""
}
