package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/render"
)

// This file is the /v1/analyze wire codec. On a served cache hit the
// analysis is cheap and reading a ~200 KB body and writing the response
// are most of the cost, so neither goes through encoding/json's
// reflection: the request is read once into one buffer and decoded by a
// reader that knows the AnalyzeRequest schema, and the response is
// appended straight into a byte slice with render's JSON string escaper. Both are held to encoding/json
// byte for byte and decision for decision: FuzzDecodeRequest compares the
// reader with json.Decoder + DisallowUnknownFields, FuzzAnalyzeResponse the
// writer with writeJSON.

// maxBodyPresize bounds the buffer readBody allocates up front from a
// client's Content-Length, so a claimed length costs memory only once its
// bytes arrive.
const maxBodyPresize = 4 << 20

// readBody appends the request body to dst, growing it at most once when
// the client sent a Content-Length, and reads at most maxRequestBody
// bytes. It returns what it read with the read error, if any: a body whose
// JSON value is complete before the failure still decodes, as it did when
// json.Decoder read the stream and stopped at the end of the first value.
func readBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, error) {
	size := 32 << 10
	if r.ContentLength >= 0 {
		// One spare byte lets the read that returns io.EOF land without
		// growing the buffer.
		size = int(min(r.ContentLength, maxBodyPresize)) + 1
	}
	buf := slices.Grow(dst, size)
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// bufPool recycles the analyze handler's body, output and response
// buffers: without it a served hit allocates all three anew, about half a
// megabyte per request at the bench's body size.
var bufPool sync.Pool

// getBuf returns an empty pooled buffer.
func getBuf() *[]byte {
	if p, ok := bufPool.Get().(*[]byte); ok {
		return p
	}
	return new([]byte)
}

// putBuf returns b, possibly grown from *p, to the pool. An outsized
// request's buffer is dropped instead, so the pool pins no more than a
// typical request's worth.
func putBuf(p *[]byte, b []byte) {
	if cap(b) > maxBodyPresize {
		return
	}
	*p = b[:0]
	bufPool.Put(p)
}

// decodeRequest decodes an analyze request body into req, accepting exactly
// the bodies json.NewDecoder(body) with DisallowUnknownFields accepted and
// yielding the same struct:
//
//   - only the first JSON value is read; bytes after it are ignored;
//   - the value must be an object, or null (which leaves req unchanged);
//   - keys name fields case-insensitively, as strings.EqualFold matches
//     them, escaped keys included; any other key is an error;
//   - null leaves a scalar field unchanged and sets sources/headers to nil;
//   - integers must be JSON integers in range (no fraction or exponent);
//   - strings coerce invalid UTF-8 and unpaired surrogates to U+FFFD;
//   - a repeated key decodes again into the same field: scalars take the
//     last value, headers merge into the existing map, and sources reuse
//     the existing slice element by element (json.Decoder's reflect-based
//     slice reuse, so a shorter array truncates and a longer one can expose
//     elements a previous, longer array left in the backing array).
//
// Error messages differ from encoding/json's; a request is rejected in
// exactly the same cases.
func decodeRequest(data []byte, req *AnalyzeRequest) error {
	d := reqDecoder{data: data}
	d.ws()
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key string) error { return d.field(req, key) })
	}
	if d.i == len(d.data) {
		return errors.New("empty request body")
	}
	return errors.New("request body is not a JSON object")
}

// reqDecoder is a cursor over a request body.
type reqDecoder struct {
	data    []byte
	i       int
	scratch []byte // reused by stringValue
}

var errEOF = errors.New("unexpected end of JSON input")

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *reqDecoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// syntax reports the byte at the cursor as unexpected.
func (d *reqDecoder) syntax() error {
	if d.i >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.i], d.i)
}

func (d *reqDecoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *reqDecoder) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if d.peek() != lit[j] {
			return d.syntax()
		}
		d.i++
	}
	return nil
}

// object walks the object whose '{' is at the cursor, calling member with
// each decoded key and the cursor on its value; member must consume it.
func (d *reqDecoder) object(member func(key string) error) error {
	d.i++
	d.ws()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if d.peek() != '"' {
			return d.syntax()
		}
		key, err := d.stringValue()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntax()
		}
		d.i++
		d.ws()
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntax()
		}
	}
}

// field decodes the value of one top-level request key.
func (d *reqDecoder) field(req *AnalyzeRequest, key string) error {
	switch {
	case fieldIs(key, "demo"):
		return d.boolean(&req.Demo)
	case fieldIs(key, "seed"):
		return d.integer(&req.Seed, 64)
	case fieldIs(key, "sources"):
		return d.sources(req)
	case fieldIs(key, "headers"):
		return d.headers(req)
	case fieldIs(key, "workers"):
		w := int64(req.Workers)
		err := d.integer(&w, strconv.IntSize)
		req.Workers = int(w)
		return err
	case fieldIs(key, "checkers"):
		return d.str(&req.Checkers)
	case fieldIs(key, "pattern"):
		return d.str(&req.Pattern)
	case fieldIs(key, "confirm"):
		return d.boolean(&req.Confirm)
	case fieldIs(key, "json"):
		return d.boolean(&req.JSON)
	case fieldIs(key, "timeout_ms"):
		return d.integer(&req.TimeoutMS, 64)
	}
	return fmt.Errorf("unknown field %q", key)
}

// fieldIs reports whether an object key names the field with the given
// JSON name. encoding/json matches a key by its exact name, else by simple
// Unicode case folding, as strings.EqualFold does: "Seed" and "SEED" match
// seed, and so do the Kelvin sign for k and the long s for s.
func fieldIs(key, name string) bool {
	return key == name || strings.EqualFold(key, name)
}

func (d *reqDecoder) mismatch(kind string) error {
	if d.i >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("cannot decode %q at offset %d into a %s", d.data[d.i], d.i, kind)
}

func (d *reqDecoder) boolean(v *bool) error {
	switch d.peek() {
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// integer decodes a JSON integer that fits in bits into *v; null leaves *v
// unchanged. A fraction or exponent is an error, as encoding/json makes it
// for an integer field.
func (d *reqDecoder) integer(v *int64, bits int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("integer")
	}
	start := d.i
	for d.i < len(d.data) && strings.IndexByte("0123456789+-.eE", d.data[d.i]) >= 0 {
		d.i++
	}
	// ParseInt accepts exactly -?[0-9]+ here (the sign was checked above);
	// JSON also forbids a leading zero.
	lit := d.data[start:d.i]
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if digits := bytes.TrimPrefix(lit, []byte("-")); err != nil || len(digits) > 1 && digits[0] == '0' {
		return fmt.Errorf("%s at offset %d is not a JSON int%d", lit, start, bits)
	}
	*v = n
	return nil
}

// str decodes a JSON string into *v; null leaves *v unchanged.
func (d *reqDecoder) str(v *string) error {
	switch d.peek() {
	case '"':
		s, err := d.stringValue()
		if err == nil {
			*v = s
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// sources decodes the sources array, reusing req.Sources element by
// element the way json.Decoder's reflect-based slice decoding does.
func (d *reqDecoder) sources(req *AnalyzeRequest) error {
	switch d.peek() {
	case 'n':
		req.Sources = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("sources array")
	}
	d.i++
	d.ws()
	s := req.Sources
	n := 0
	if d.peek() == ']' {
		d.i++
	} else {
		for done := false; !done; {
			d.ws()
			switch {
			case n >= cap(s): // then len(s) == n: grow by one zero element
				s = append(s, SourceFile{})
			case n >= len(s): // expose whatever the backing array holds
				s = s[:n+1]
			}
			if err := d.source(&s[n]); err != nil {
				return err
			}
			n++
			d.ws()
			switch d.peek() {
			case ',':
				d.i++
			case ']':
				d.i++
				done = true
			default:
				return d.syntax()
			}
		}
	}
	if n == 0 {
		s = []SourceFile{}
	}
	req.Sources = s[:n]
	return nil
}

// source decodes one sources element into sf, keeping the fields the
// element does not name; null leaves sf unchanged.
func (d *reqDecoder) source(sf *SourceFile) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("source object")
	}
	return d.object(func(key string) error {
		switch {
		case fieldIs(key, "path"):
			return d.str(&sf.Path)
		case fieldIs(key, "content"):
			return d.str(&sf.Content)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// headers decodes the headers object, merging into an existing map; a null
// header value is stored as "".
func (d *reqDecoder) headers(req *AnalyzeRequest) error {
	switch d.peek() {
	case 'n':
		req.Headers = nil
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("headers object")
	}
	if req.Headers == nil {
		req.Headers = map[string]string{}
	}
	return d.object(func(key string) error {
		var v string
		if err := d.str(&v); err != nil {
			return err
		}
		req.Headers[key] = v
		return nil
	})
}

// strPlain marks the bytes a JSON string carries as themselves: printable
// ASCII but '"' and '\\'. Control bytes are errors; bytes >= 0x80 are
// checked as UTF-8.
var strPlain [256]bool

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		strPlain[b] = b != '"' && b != '\\'
	}
}

// stringValue decodes the string whose opening quote is at the cursor. It
// unescapes into the decoder's reused scratch buffer in one pass, then
// copies the result into a string of exactly its length, so each string
// is allocated once.
func (d *reqDecoder) stringValue() (string, error) {
	data := d.data
	buf := d.scratch[:0]
	for i := d.i + 1; ; {
		start := i
		for i < len(data) && strPlain[data[i]] {
			i++
		}
		buf = append(buf, data[start:i]...)
		if i >= len(data) {
			return "", errEOF
		}
		switch c := data[i]; {
		case c == '"':
			d.scratch = buf
			d.i = i + 1
			return string(buf), nil
		case c == '\\':
			if i+1 >= len(data) {
				return "", errEOF
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, size, ok := escapedRune(data[i:])
				if !ok {
					return "", fmt.Errorf("invalid \\u escape at offset %d", i)
				}
				buf = utf8.AppendRune(buf, r)
				i += size
				continue
			default:
				d.i = i + 1
				return "", d.syntax()
			}
			i += 2
		case c < 0x20:
			d.i = i
			return "", d.syntax()
		default: // >= 0x80: invalid UTF-8 bytes become U+FFFD
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, r)
			} else {
				buf = append(buf, data[i:i+size]...)
			}
			i += size
		}
	}
}

// escapedRune decodes the \uXXXX escape at the start of s as encoding/json
// unquotes it: a high surrogate joined by a following \uXXXX low surrogate
// is one rune (size 12); any other surrogate is U+FFFD (size 6).
func escapedRune(s []byte) (r rune, size int, ok bool) {
	r = hex4(s)
	if r < 0 {
		return 0, 0, false
	}
	if !utf16.IsSurrogate(r) {
		return r, 6, true
	}
	if r2 := hex4(s[6:]); r2 >= 0 {
		if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
			return dec, 12, true
		}
	}
	return unicode.ReplacementChar, 6, true
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendResponse appends the analyze response body writeJSON writes for
// AnalyzeResponse{ID: id, Output: string(output), ...}: fields in
// declaration order, strings escaped without HTML escaping, metrics keys
// sorted, and a trailing newline. wallMS must be finite.
func appendResponse(dst []byte, id string, output []byte, reports int, wallMS float64, metrics map[string]int64) []byte {
	dst = slices.Grow(dst, len(output)+len(output)/8+64*len(metrics)+128)
	dst = append(dst, `{"id":`...)
	dst = render.AppendString(dst, id, false)
	dst = append(dst, `,"output":`...)
	dst = render.AppendString(dst, output, false)
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(reports), 10)
	dst = append(dst, `,"wall_ms":`...)
	dst = appendFloat(dst, wallMS)
	dst = append(dst, `,"metrics":`...)
	if metrics == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		for i, k := range slices.Sorted(maps.Keys(metrics)) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = render.AppendString(dst, k, false)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, metrics[k], 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...)
}

// appendFloat formats a finite float64 the way encoding/json does: like
// strconv's shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on
// with a two-digit negative exponent trimmed ("1e-07" becomes "1e-7").
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
