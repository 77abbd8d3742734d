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
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// digitPairs is "00" to "99": AppendUint writes two digits a table look-up.
const digitPairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
	"30313233343536373839" + "40414243444546474849" + "50515253545556575859" +
	"60616263646566676869" + "70717273747576777879" + "80818283848586878889" +
	"90919293949596979899"

// pow10 is 10^0 to 10^19.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// AppendUint appends the decimal form of v. It sizes the digits from v's bit
// length and writes them in place, last first: blocks of eight, one 64-bit
// division each, as four pairs from 32-bit arithmetic — a trace ID's nineteen
// digits take two divisions, not nineteen — and then pairs.
func AppendUint(dst []byte, v uint64) []byte {
	if v < 10 {
		return append(dst, byte('0'+v))
	}
	n := bits.Len64(v) * 1233 >> 12 // ⌊log10 2^len⌋: v has n or n+1 digits
	if v >= pow10[n] {
		n++
	}
	dst = slices.Grow(dst, n)[:len(dst)+n]
	b := dst[len(dst)-n:]
	for v >= 1e8 {
		q := v / 1e8
		block := uint32(v - q*1e8)
		hi, lo := block/1e4, block%1e4
		n -= 8
		putPair(b[n:], hi/100)
		putPair(b[n+2:], hi%100)
		putPair(b[n+4:], lo/100)
		putPair(b[n+6:], lo%100)
		v = q
	}
	u := uint32(v)
	for ; u >= 100; u /= 100 {
		n -= 2
		putPair(b[n:], u%100)
	}
	if u >= 10 {
		putPair(b, u)
	} else {
		b[0] = byte('0' + u)
	}
	return dst
}

// putPair writes n < 100 as two digits.
func putPair(b []byte, n uint32) { b[0], b[1] = digitPairs[2*n], digitPairs[2*n+1] }

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
//
// The first sixteen digits are read eight at a time, as one little-endian
// word, while eight more bytes are all digits; the rest one at a time.
func ParseUint(p []byte) (uint64, []byte, bool) {
	var n uint64
	i := 0
	for ; i <= 8 && len(p)-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		if !eightDigits(w) {
			break
		}
		n = n*1e8 + valueOf8(w)
	}
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

// eightDigits reports whether every byte of w is '0' to '9': its high nibble
// is 3, and still 3 once 6 is added, which carries ':' to '?' out of it.
func eightDigits(w uint64) bool {
	const high, three = 0xf0f0f0f0f0f0f0f0, 0x3030303030303030
	return w&high == three && (w+0x0606060606060606)&high == three
}

// valueOf8 is the number eight digits spell, read into w little-endian (the
// first, most significant digit in the lowest byte): each step merges
// neighbouring lanes into one twice as wide, two digits, then four, then
// eight.
func valueOf8(w uint64) uint64 {
	w = (w & 0x0f0f0f0f0f0f0f0f) * (10<<8 + 1) >> 8
	w = (w & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16
	return (w & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32
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
	doc      []byte
	at       int    // doc[:at] is read; an offset, so that advancing stores no pointer (no write barrier)
	scratch  []byte // unescape buffer, reused from string to string
	bad      bool
	left     int             // elements Count found and Elem has not yet reached
	chunk    strings.Builder // string bytes; a Builder never rewrites what it has handed out
	spare    []string        // the unused tail of the chunk Strings carves from
	copied   string          // the document from copyFrom on, once Span has copied it
	copyFrom int
}

// Reset points the reader at a new document, which shares no chunk with the
// last one.
func (r *Reader) Reset(p []byte) { *r = Reader{doc: p, scratch: r.scratch} }

// rest is what is left of the document.
func (r *Reader) rest() []byte { return r.doc[r.at:] }

// took moves past what a parser consumed of rest(), leaving rest, and
// records whether it parsed.
func (r *Reader) took(rest []byte, ok bool) { r.at, r.bad = len(r.doc)-len(rest), !ok }

// OK reports whether everything so far parsed and the document is used up.
func (r *Reader) OK() bool { return !r.bad && r.at == len(r.doc) }

// Lit consumes s if the input continues with it, and reports whether it did.
// It is how optional (omitempty) fields and loop ends are tested; a miss is
// not a failure.
func (r *Reader) Lit(s string) bool {
	if r.bad || !HasPrefix(r.rest(), s) {
		return false
	}
	r.at += len(s)
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
	v, rest, ok := ParseUint(r.rest())
	r.took(rest, ok)
	return v
}

// Int64 reads an integer.
func (r *Reader) Int64() int64 {
	if r.bad {
		return 0
	}
	v, rest, ok := ParseInt(r.rest())
	r.took(rest, ok)
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
	v, rest, ok := ParsePlainString(r.rest())
	if !ok {
		r.scratch, rest, ok = appendUnquoted(r.scratch[:0], r.rest())
		v = r.scratch
	}
	r.took(rest, ok)
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
	r.left = bytes.Count(r.rest(), []byte(lit))
	return r.left
}

// room sizes a new chunk, in units of size bytes (a string header is 16):
// need for this element and as much again for each one still to come, or
// twice the full chunk of was units it replaces when that is more — an
// element with many strings grows its chunks as append would — but never
// more than the document has bytes left to fill.
func (r *Reader) room(need, was, size int) int {
	return min(max(need*(max(r.left, 0)+1), 2*was), need+(len(r.doc)-r.at)/size)
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

// Mark is how much of the document has been read, for Span.
func (r *Reader) Mark() int { return r.at }

// Span returns what the reader consumed since from, a Mark, as a slice of one
// copy of the document from the first span on, made when that span is asked
// for: a bundle's tasks, relayed as received, share one allocation.
func (r *Reader) Span(from int) string {
	if r.bad {
		return ""
	}
	if r.copied == "" || from < r.copyFrom {
		r.copied, r.copyFrom = string(r.doc[from:]), from
	}
	return r.copied[from-r.copyFrom : r.at-r.copyFrom]
}

// SkipStrings reads an array of strings as Strings does, and keeps nothing.
func (r *Reader) SkipStrings() {
	r.Expect(`[`)
	for n := 0; r.elem(n); n++ {
		r.Str()
	}
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

// Key reads the key of an object's next member, `,"name":` — `"name":` if
// first, for the object's first member — and returns the name, which aliases
// the input. Where the input does not continue with the comma and a quote
// (the object's end, say) it returns nil and consumes nothing.
//
// Objects whose members are optional are read by name: the decoder switches
// on the name, numbers each member by its place in the canonical order, and
// hands the number to InOrder; a name it does not know is numbered 0. The
// name is the key's bytes as written, so a key with an escape matches no
// name, and a body that has one goes to encoding/json.
func (r *Reader) Key(first bool) []byte {
	p := r.rest()
	if !first {
		if len(p) == 0 || p[0] != ',' {
			return nil
		}
		p = p[1:]
	}
	if r.bad || len(p) == 0 || p[0] != '"' {
		return nil
	}
	p = p[1:]
	i := quote(p)
	if i <= 0 || i+1 >= len(p) || p[i+1] != ':' {
		r.bad = true // an empty name, or a string that is not a key
		return nil
	}
	r.took(p[i+2:], true)
	return p[:i]
}

// quote is the index of the first '"' in p, or -1, found eight bytes a step:
// x has a zero byte where p has a quote, and z flags the zero bytes of x. It
// may flag a byte above a zero one too (subtracting borrows out of a zero
// byte), never one below, so its lowest flag is the first quote.
func quote(p []byte) int {
	i := 0
	for ; len(p)-i >= 8; i += 8 {
		x := binary.LittleEndian.Uint64(p[i:]) ^ 0x2222222222222222
		if z := (x - 0x0101010101010101) &^ x & 0x8080808080808080; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i < len(p); i++ {
		if p[i] == '"' {
			return i
		}
	}
	return -1
}

// InOrder enforces the canonical order of an object's members: at is the place
// of the member just read (from 1; 0 for a name the decoder does not know) and
// last that of the member before it (0 for none). Unless at comes after last
// the reader fails — a member out of order, repeated or unknown is not the
// canonical layout, and the body goes whole to encoding/json, which keeps the
// last of a repeated member. It returns at, the next call's last.
func (r *Reader) InOrder(last, at int) int {
	if at <= last {
		r.bad = true
	}
	return at
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
