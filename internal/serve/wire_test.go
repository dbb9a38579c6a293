package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is how the analyze handler decoded requests before it had
// its own reader: json.Decoder with DisallowUnknownFields, first value only.
func referenceDecode(body []byte) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// checkDecode fails unless decodeRequest and the reference agree on body:
// both accept it with deeply equal requests, or both reject it.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	var got AnalyzeRequest
	gotErr := decodeRequest(body, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decodeRequest error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
}

// FuzzDecodeRequest holds decodeRequest to json.Decoder with
// DisallowUnknownFields: the same bodies are accepted, into deeply equal
// requests, and the same bodies are rejected.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// referenceResponse is the analyze response body writeJSON writes.
func referenceResponse(resp AnalyzeResponse) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// FuzzAnalyzeResponse holds appendResponse to writeJSON byte for byte:
// string escaping without HTML escapes, float formatting on both sides of
// the 1e-6 and 1e21 switches to exponent form, and sorted metric keys.
func FuzzAnalyzeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string, output []byte, reports int, wallMS float64, k1 string, v1 int64, k2 string, v2 int64, nilMetrics bool) {
		if math.IsNaN(wallMS) || math.IsInf(wallMS, 0) {
			t.Skip("wall_ms is a duration, always finite")
		}
		resp := AnalyzeResponse{ID: id, Output: string(output), Reports: reports, WallMS: wallMS}
		if !nilMetrics {
			resp.Metrics = map[string]int64{k1: v1, k2: v2}
		}
		want := referenceResponse(resp)
		if got := appendResponse(nil, id, output, reports, wallMS, resp.Metrics); !bytes.Equal(got, want) {
			t.Fatalf("appendResponse differs from writeJSON:\n got %q\nwant %q", got, want)
		}
	})
}

// TestAnalyzeBadRequests drives each class of malformed analyze request
// through the handler: every one is a 400 counted as serve.badrequest, and
// none reaches the pipeline.
func TestAnalyzeBadRequests(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	for _, tc := range []struct{ name, body string }{
		{"malformed JSON", `{"demo":tru}`},
		{"empty body", ``},
		{"not an object", `["demo"]`},
		{"unknown top-level field", `{"demo":true,"verbose":true}`},
		{"unknown source field", `{"sources":[{"path":"a.c","content":"","mode":1}]}`},
		{"wrong type", `{"workers":"2","demo":true}`},
		{"fractional integer", `{"workers":1.0,"demo":true}`},
		{"empty sources", `{"sources":[]}`},
		{"empty path", `{"sources":[{"path":"","content":"int x;"}]}`},
		{"bad checkers", `{"demo":true,"checkers":"P1,P42"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Registry().Counter("serve.badrequest")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("error body %q does not decode to an ErrorResponse (%v)", rec.Body.Bytes(), err)
			}
			if got := srv.Registry().Counter("serve.badrequest"); got != before+1 {
				t.Errorf("serve.badrequest went %d -> %d, want +1", before, got)
			}
		})
	}
	if n := srv.Registry().Counter("serve.requests"); n != 0 {
		t.Errorf("%d bad requests reached the pipeline", n)
	}
}
