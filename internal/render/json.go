package render

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// This file is the one JSON writer behind refcheck -json and refcheckd's
// analyze response. It appends directly into a caller's byte slice, with
// no reflection and no second indenting pass, and reproduces
// encoding/json's output byte for byte: the tests and fuzz targets hold it
// to json.Encoder as the reference.

const hexDigits = "0123456789abcdef"

// safeHTML and safeNoHTML mark the ASCII bytes a JSON string carries
// unescaped: every printable byte but '"' and '\\', and, in safeHTML, not
// '<', '>' or '&' either. Bytes >= 0x80 are never marked; they take the
// UTF-8 path.
var safeHTML, safeNoHTML [256]bool

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\':
		case '<', '>', '&':
			safeNoHTML[b] = true
		default:
			safeHTML[b], safeNoHTML[b] = true, true
		}
	}
}

// AppendString appends s as a quoted JSON string with encoding/json's
// escaping rules: '"' and '\\' backslashed; \b \f \n \r \t as short
// escapes and every other control byte as \u00XX; each invalid UTF-8 byte
// as the escaped replacement character U+FFFD; U+2028 and U+2029 escaped;
// and, when escapeHTML is set (the json.Encoder default), '<', '>' and '&'
// as \u00XX escapes too.
func AppendString[S []byte | string](dst []byte, s S, escapeHTML bool) []byte {
	safe := &safeNoHTML
	if escapeHTML {
		safe = &safeHTML
	}
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if safe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// reportFixedBytes is the part of one indented report object that does not
// depend on its strings: keys, quotes, separators and indentation.
const reportFixedBytes = len(`,
  {
    "Pattern": "",
    "Impact": "",
    "File": "",
    "Function": "",
    "Object": "",
    "API": "",
    "Line": ,
    "Message": "",
    "Suggestion": ""
  }`)

// AppendJSON appends the reports as the indented JSON array refcheck -json
// prints (the JSON mode emits no summary block): one object per report with
// the fields Pattern, Impact, File, Function, Object, API, Line, Message,
// Suggestion in that order, two-space indentation, HTML-escaped strings,
// "[]" for an empty list and a trailing newline — the bytes json.Encoder
// with SetIndent("", "  ") writes for the same records.
func AppendJSON(dst []byte, reports []core.Report) []byte {
	if len(reports) == 0 {
		return append(dst, "[]\n"...)
	}
	// Presize for the text as if nothing needed escaping, plus a
	// thirty-second for escapes, so a typical run appends into one
	// allocation.
	var num [20]byte
	n := len("[\n]\n")
	for i := range reports {
		r := &reports[i]
		n += reportFixedBytes + len(r.Pattern) + len(r.Impact.String()) + len(r.File) +
			len(r.Function) + len(r.Object) + len(r.API) + len(r.Message) + len(r.Suggestion) +
			len(strconv.AppendInt(num[:0], int64(r.Pos.Line), 10))
	}
	dst = slices.Grow(dst, n+n/32)
	dst = append(dst, '[')
	for i := range reports {
		r := &reports[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  {\n    \"Pattern\": "...)
		dst = AppendString(dst, string(r.Pattern), true)
		dst = append(dst, ",\n    \"Impact\": "...)
		dst = AppendString(dst, r.Impact.String(), true)
		dst = append(dst, ",\n    \"File\": "...)
		dst = AppendString(dst, r.File, true)
		dst = append(dst, ",\n    \"Function\": "...)
		dst = AppendString(dst, r.Function, true)
		dst = append(dst, ",\n    \"Object\": "...)
		dst = AppendString(dst, r.Object, true)
		dst = append(dst, ",\n    \"API\": "...)
		dst = AppendString(dst, r.API, true)
		dst = append(dst, ",\n    \"Line\": "...)
		dst = strconv.AppendInt(dst, int64(r.Pos.Line), 10)
		dst = append(dst, ",\n    \"Message\": "...)
		dst = AppendString(dst, r.Message, true)
		dst = append(dst, ",\n    \"Suggestion\": "...)
		dst = AppendString(dst, r.Suggestion, true)
		dst = append(dst, "\n  }"...)
	}
	return append(dst, "\n]\n"...)
}
