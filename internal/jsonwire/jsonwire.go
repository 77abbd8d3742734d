// Package jsonwire holds the JSON primitives shared by the hand-written wire
// codecs: the frame envelope in wsrpc and the task-carrying message bodies
// in task and fproto (DESIGN.md §9).
//
// The appenders produce documents that decode exactly as encoding/json's
// output does. The parsers accept only the canonical layout those appenders
// and json.Marshal emit — no whitespace, no leading zeros, well-formed UTF-8
// — and report ok=false on anything else, valid JSON or not; the caller then
// hands the whole document to encoding/json, so the accepted wire language
// is encoding/json's and these are purely an allocation-free shortcut.
package jsonwire

import (
	"bytes"
	"math"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// AppendUint appends the decimal form of v.
func AppendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

// AppendInt appends the decimal form of v, matching encoding/json for any
// int64 so the decode-equivalence property holds.
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return AppendUint(dst, uint64(-v)) // MinInt64 negates to itself; uint64 conversion keeps the magnitude
	}
	return AppendUint(dst, uint64(v))
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal. Escaping matches
// encoding/json's decode semantics: quotes, backslashes, and control
// characters escape; invalid UTF-8 bytes become U+FFFD exactly as the
// standard encoder emits them. (encoding/json additionally escapes <, >, &,
// U+2028 and U+2029 for HTML and JavaScript embedding; those decode
// identically unescaped, so the wire stays compatible with peers using
// json.Unmarshal.)
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i++
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// HasPrefix reports whether b begins with s.
func HasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// ParseUint consumes a JSON non-negative integer: decimal digits with no
// leading zero. Values past MaxUint64 are not ok: nineteen digits cannot
// overflow, so only a twentieth is checked, and a twenty-first refused.
func ParseUint(p []byte) (uint64, []byte, bool) {
	var n uint64
	i := 0
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		d := uint64(p[i] - '0')
		if i >= 19 && (i > 19 || n > (math.MaxUint64-d)/10) {
			return 0, p, false
		}
		n = n*10 + d
	}
	if i == 0 || (i > 1 && p[0] == '0') {
		return 0, p, false
	}
	return n, p[i:], true
}

// ParseInt consumes an optional minus sign and a JSON integer within int64.
func ParseInt(p []byte) (int64, []byte, bool) {
	neg := len(p) > 0 && p[0] == '-'
	digits := p
	if neg {
		digits = p[1:]
	}
	n, rest, ok := ParseUint(digits)
	switch {
	case !ok:
		return 0, p, false
	case neg && n <= 1<<63:
		return -int64(n), rest, true // n == 1<<63 wraps to MinInt64, which is its negation
	case !neg && n <= math.MaxInt64:
		return int64(n), rest, true
	}
	return 0, p, false
}

// ParsePlainString consumes the rest of a string literal whose opening quote
// the caller has already consumed, up to and including the closing quote,
// and returns its contents as a slice of p. A literal with an escape, a raw
// control character or malformed UTF-8 is not ok (Reader.Str decodes the
// first; encoding/json rejects the second and repairs the third).
func ParsePlainString(p []byte) ([]byte, []byte, bool) {
	ascii := true
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(p[:i]) {
				return nil, p, false
			}
			return p[:i], p[i+1:], true
		case c == '\\' || c < 0x20:
			return nil, p, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, p, false
}

// appendUnquoted is ParsePlainString for literals that may contain escapes:
// it appends the decoded contents to dst. Every JSON escape is decoded,
// \uXXXX surrogate pairs included; a lone surrogate is not ok (encoding/json
// substitutes U+FFFD, and that choice stays in one place).
func appendUnquoted(dst, p []byte) (out, rest []byte, ok bool) {
	base := len(dst)
	for i := 0; i < len(p); {
		c := p[i]
		switch {
		case c == '"':
			if !utf8.Valid(dst[base:]) {
				return dst[:base], p, false
			}
			return dst, p[i+1:], true
		case c < 0x20:
			return dst[:base], p, false
		case c != '\\':
			dst = append(dst, c)
			i++
			continue
		}
		if i+1 >= len(p) {
			break
		}
		i += 2
		switch p[i-1] {
		case '"', '\\', '/':
			dst = append(dst, p[i-1])
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r, n := hex4(p[i:])
			if n == 0 {
				return dst[:base], p, false
			}
			i += n
			if utf16.IsSurrogate(r) {
				if !HasPrefix(p[i:], `\u`) {
					return dst[:base], p, false
				}
				r2, n2 := hex4(p[i+2:])
				if r = utf16.DecodeRune(r, r2); n2 == 0 || r == utf8.RuneError {
					return dst[:base], p, false
				}
				i += 2 + n2
			}
			dst = utf8.AppendRune(dst, r)
		default:
			return dst[:base], p, false
		}
	}
	return dst[:base], p, false
}

// hex4 decodes four hex digits; n is 4, or 0 when p does not start with four.
func hex4(p []byte) (r rune, n int) {
	if len(p) < 4 {
		return 0, 0
	}
	for _, c := range p[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, 0
		}
		r = r<<4 | rune(c)
	}
	return r, 4
}

// Reader walks one document in the canonical layout. Failure is sticky: the
// first thing that is not where the canonical layout puts it makes every
// later call a no-op returning zero, and OK reports false, so a decoder
// reads a whole message straight through and checks once at the end.
//
// Slices returned by Str alias the input or the reader's scratch and are
// valid only until the next call. What String, Interned and Strings return is
// copied out of the input into chunks the whole document shares (DESIGN.md
// §9, "Body codec"): one allocation serves every element's strings, and
// keeping one of them keeps its chunk — at most this document's strings.
type Reader struct {
	p       []byte
	scratch []byte // unescape buffer, reused from string to string
	bad     bool
	left    int             // elements Count found and Elem has not yet reached
	chunk   strings.Builder // string bytes; a Builder never rewrites what it has handed out
	spare   []string        // the unused tail of the chunk Strings carves from
}

// Reset points the reader at a new document, which shares no chunk with the
// last one.
func (r *Reader) Reset(p []byte) { *r = Reader{p: p, scratch: r.scratch} }

// OK reports whether everything so far parsed and the document is used up.
func (r *Reader) OK() bool { return !r.bad && len(r.p) == 0 }

// Lit consumes s if the input continues with it, and reports whether it did.
// It is how optional (omitempty) fields and loop ends are tested; a miss is
// not a failure.
func (r *Reader) Lit(s string) bool {
	if r.bad || !HasPrefix(r.p, s) {
		return false
	}
	r.p = r.p[len(s):]
	return true
}

// Expect consumes s, failing when the input does not continue with it.
func (r *Reader) Expect(s string) {
	if !r.Lit(s) {
		r.bad = true
	}
}

// Uint reads a non-negative integer.
func (r *Reader) Uint() uint64 {
	if r.bad {
		return 0
	}
	v, rest, ok := ParseUint(r.p)
	r.p, r.bad = rest, !ok
	return v
}

// Int64 reads an integer.
func (r *Reader) Int64() int64 {
	if r.bad {
		return 0
	}
	v, rest, ok := ParseInt(r.p)
	r.p, r.bad = rest, !ok
	return v
}

// Int reads an integer that fits the platform's int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.bad = true
		return 0
	}
	return int(v)
}

// Uint8 reads an integer in [0, 255].
func (r *Reader) Uint8() uint8 {
	v := r.Uint()
	if v > math.MaxUint8 {
		r.bad = true
		return 0
	}
	return uint8(v)
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.Lit("true") {
		return true
	}
	r.Expect("false")
	return false
}

// Str reads a string literal and returns its decoded contents.
func (r *Reader) Str() []byte {
	if !r.Lit(`"`) {
		r.bad = true
		return nil
	}
	v, rest, ok := ParsePlainString(r.p)
	if !ok {
		r.scratch, rest, ok = appendUnquoted(r.scratch[:0], r.p)
		v = r.scratch
	}
	r.p, r.bad = rest, !ok
	return v
}

// String reads a string literal into a Go string. When the contents equal
// like, like itself is returned and nothing is allocated: decoders pass the
// previous element's value, since a bundle's tasks mostly share their
// command and a batch of results their instance and executor.
func (r *Reader) String(like string) string { return r.Interned(like, nil) }

// Interned is String for a value the decoding side may already hold: known,
// unless nil, maps the contents to an equal string of its own, or to "".
func (r *Reader) Interned(like string, known func([]byte) string) string {
	b := r.Str()
	if string(b) == like {
		return like
	}
	if known != nil {
		if s := known(b); s != "" {
			return s
		}
	}
	return r.keep(b, like != "")
}

// Count counts the occurrences of lit in the rest of the document and takes
// them for its elements still to come, which Elem then counts off: lit is
// what opens an element and nothing else. The decoder sizes its slice by the
// count and the reader its chunks; both are only capacities, so a document
// that is not what it claims can do no harm with it.
func (r *Reader) Count(lit string) int {
	r.left = bytes.Count(r.p, []byte(lit))
	return r.left
}

// room sizes a new chunk, in units of size bytes (a string header is 16):
// need for this element and as much again for each one still to come, or
// twice the full chunk of was units it replaces when that is more — an
// element with many strings grows its chunks as append would — but never
// more than the document has bytes left to fill.
func (r *Reader) room(need, was, size int) int {
	return min(max(need*(max(r.left, 0)+1), 2*was), need+len(r.p)/size)
}

// keep copies b, which Str returned, into the document's string chunk. run
// says b is one of a run of values that differ from element to element — an
// argument, a field unlike the previous element's — and a chunk with no room
// for it is then replaced by one with room for the run; any other value that
// does not fit is allocated by itself, as the one such value a document
// usually has (its tasks' command, say) should be.
func (r *Reader) keep(b []byte, run bool) string {
	if len(b) > r.chunk.Cap()-r.chunk.Len() {
		if !run {
			return string(b)
		}
		n := r.room(len(b), r.chunk.Cap(), 1)
		r.chunk.Reset()
		r.chunk.Grow(n)
	}
	off := r.chunk.Len()
	r.chunk.Write(b)
	return r.chunk.String()[off:]
}

// Strings reads an array of strings; like encoding/json, an empty array
// yields an empty non-nil slice. The slices of one document are carved from
// a shared chunk, each clipped to its length so that appending to one cannot
// reach the next.
func (r *Reader) Strings() []string {
	r.Expect(`[`)
	ss := r.spare
	for r.elem(len(ss)) {
		s := r.keep(r.Str(), true)
		if len(ss) == cap(ss) {
			ss = append(make([]string, 0, r.room(len(ss)+1, len(ss), 16)), ss...)
		}
		ss = append(ss, s)
	}
	if len(ss) == 0 {
		return []string{}
	}
	r.spare = ss[len(ss):]
	return ss[:len(ss):len(ss)]
}

// Field consumes an optional field's key (`"name":`, quotes and colon
// included) together with the comma separating it from the previous field,
// for objects whose every field is optional: *first says whether the object
// has had a field yet. Objects with a mandatory first field spell the comma
// into the literal and use Lit.
func (r *Reader) Field(first *bool, key string) bool {
	if r.bad {
		return false
	}
	p := r.p
	if !*first {
		if len(p) == 0 || p[0] != ',' {
			return false
		}
		p = p[1:]
	}
	if !HasPrefix(p, key) {
		return false
	}
	r.p, *first = p[len(key):], false
	return true
}

// Elem steps through an array of the document's elements whose `[` has been
// consumed: it reports whether element n (counting from 0) follows, consuming
// the comma before it or the bracket that closes the array, and counts the
// element off those Count found.
func (r *Reader) Elem(n int) bool {
	if !r.elem(n) {
		return false
	}
	r.left--
	return true
}

// elem is Elem for any array.
func (r *Reader) elem(n int) bool {
	if n == 0 {
		return !r.bad && !r.Lit(`]`)
	}
	if r.Lit(`,`) {
		return true
	}
	r.Expect(`]`)
	return false
}
