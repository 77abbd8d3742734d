package jsonwire

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// uintEdges are the integers around ParseUint's one overflow check: nineteen
// digits, MaxUint64 and its neighbours, twenty digits past it, twenty-one, and
// a leading zero at each length; and around the ends of its eight-digit
// strides: eight digits and nine, sixteen and seventeen. (FuzzBodyCodec in
// internal/fproto is seeded with the same.)
var uintEdges = []string{
	"0", "9", "9999999999999999999", "10000000000000000000",
	"18446744073709551609", "18446744073709551610", "18446744073709551614",
	"18446744073709551615", "18446744073709551616", "18446744073709551620",
	"19999999999999999999", "99999999999999999999",
	"100000000000000000000", "184467440737095516150", "000000000000000000001",
	"01", "0000000000000000001", "00000000000000000001",
	"99999999", "100000000", "9999999999999999", "10000000000000000",
}

// agreeWithStrconv checks the parsers and the appenders against strconv on
// one run of digits: ParseUint, and ParseInt with and without a minus sign,
// take what strconv takes bar a leading zero, with the same value and
// nothing else consumed; and what they take appends back as it was.
func agreeWithStrconv(t *testing.T, in string) {
	t.Helper()
	canonical := len(in) == 1 || in[0] != '0' // strconv takes leading zeros
	want, err := strconv.ParseUint(in, 10, 64)
	u, rest, ok := ParseUint([]byte(in + "}"))
	if ok != (err == nil && canonical) || (ok && (u != want || string(rest) != "}")) {
		t.Errorf("ParseUint(%q) = %d, %q, %v; strconv says %d, %v", in, u, rest, ok, want, err)
	}
	if ok && string(AppendUint([]byte("x"), u)) != "x"+in {
		t.Errorf("AppendUint(%d) = %q", u, AppendUint(nil, u))
	}
	for _, s := range []string{in, "-" + in} {
		want, err := strconv.ParseInt(s, 10, 64)
		v, rest, ok := ParseInt([]byte(s + ","))
		if ok != (err == nil && canonical) || (ok && (v != want || string(rest) != ",")) {
			t.Errorf("ParseInt(%q) = %d, %q, %v; strconv says %d, %v", s, v, rest, ok, want, err)
		}
		if ok && string(AppendInt(nil, v)) != strconv.FormatInt(v, 10) {
			t.Errorf("AppendInt(%d) = %q", v, AppendInt(nil, v))
		}
	}
}

// Every length from one digit to twenty-five: 10^k−1, 10^k and 10^k+1 for k
// from 0 to 24, each also with a leading zero. This crosses both ends of
// ParseUint's strides (eight digits, sixteen) and of AppendUint's blocks, and
// goes past where a third stride would end unchecked.
func TestIntegersAtEveryLength(t *testing.T) {
	for k := 0; k <= 24; k++ {
		below, at, above := strings.Repeat("9", k), "1"+strings.Repeat("0", k), "1"+strings.Repeat("0", max(k-1, 0))+"1"
		if k == 0 {
			below, above = "0", "2"
		}
		for _, in := range []string{below, at, above} {
			agreeWithStrconv(t, in)
			agreeWithStrconv(t, "0"+in)
		}
	}
}

func TestParseNumbers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ok   bool
		u    uint64
		rest string
	}{
		{"0", true, 0, ""}, {"7,", true, 7, ","}, {"18446744073709551615}", true, math.MaxUint64, "}"},
		{"18446744073709551616", false, 0, ""}, // MaxUint64+1 used to wrap to 0
		{"18446744073709551619", false, 0, ""},
		{"99999999999999999999", false, 0, ""},
		{"01", false, 0, ""}, {"00", false, 0, ""}, // JSON has no leading zeros
		{"", false, 0, ""}, {"-1", false, 0, ""}, {"x", false, 0, ""},
		// ':' to '?' share the digits' high nibble: a stride must not take them.
		{"1234567:", true, 1234567, ":"}, {"123456789012345?", true, 123456789012345, "?"},
	} {
		u, rest, ok := ParseUint([]byte(tc.in))
		if ok != tc.ok || (ok && (u != tc.u || string(rest) != tc.rest)) {
			t.Errorf("ParseUint(%q) = %d, %q, %v", tc.in, u, rest, ok)
		}
	}
	// The overflow check is on the twentieth digit alone: around it, ParseUint
	// and strconv.ParseUint agree on every value and on what is refused.
	for _, in := range uintEdges {
		agreeWithStrconv(t, in)
	}
	for _, tc := range []struct {
		in string
		ok bool
		v  int64
	}{
		{"0", true, 0}, {"-0", true, 0}, {"-1", true, -1},
		{"9223372036854775807", true, math.MaxInt64}, {"9223372036854775808", false, 0},
		{"-9223372036854775808", true, math.MinInt64}, {"-9223372036854775809", false, 0},
		{"-", false, 0}, {"-01", false, 0}, {"+1", false, 0},
	} {
		v, _, ok := ParseInt([]byte(tc.in))
		if ok != tc.ok || v != tc.v {
			t.Errorf("ParseInt(%q) = %d, %v", tc.in, v, ok)
		}
	}
	roundTrip := func(u uint64, i int64) bool {
		gu, ru, oku := ParseUint(AppendUint(nil, u))
		gi, ri, oki := ParseInt(AppendInt(nil, i))
		return oku && oki && gu == u && gi == i && len(ru)+len(ri) == 0 &&
			string(AppendInt(nil, i)) == strconv.FormatInt(i, 10)
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

// Every string literal the parsers take, encoding/json reads as the same
// string; what they decline is an escape form left to encoding/json (a lone
// surrogate, malformed UTF-8) or not JSON at all.
func TestParseStringsAgainstEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		take bool
	}{
		{`""`, true}, {`"plain"`, true}, {`"é 世界 😀"`, true}, {`"a\"b\\c\/d\b\f\n\r\t"`, true},
		{`"\u0041\u00e9\u00E9 \ud83d\ude00 \u0000"`, true},
		{"\"raw\ttab\"", false}, {"\"raw\nnewline\"", false}, {`"\x41"`, false}, {`"\u12"`, false}, {`"\u12G4"`, false},
		{`"unterminated`, false}, {`"trailing\"`, false},
		{`"\ud800"`, false}, {`"\ud800A"`, false}, {`"\udc00\ud800"`, false}, {`"\ud800\u0041"`, false},
		{"\"\xff\"", false}, {"\"\xed\xa0\x80\"", false}, {"\"\xc0\xaf\"", false}, {"\"caf\xc3\"", false},
	} {
		got, rest, ok := appendUnquoted([]byte("keep:"), []byte(tc.lit[1:]))
		if ok != tc.take {
			t.Errorf("%s: taken = %v, want %v", tc.lit, ok, tc.take)
			continue
		}
		if _, n, okScan := unquote(nil, []byte(tc.lit[1:]), false); okScan != ok || ok && n != len(tc.lit)-2 {
			t.Errorf("%s: unquote without decoding = %d, %v; appendUnquoted took it: %v", tc.lit, n, okScan, ok)
		}
		plain, prest, okPlain := ParsePlainString([]byte(tc.lit[1:]))
		if okPlain && (!ok || string(plain) != string(got[5:]) || len(prest) != len(rest)) {
			t.Errorf("%s: ParsePlainString took it as %q, appendUnquoted as %q, %v", tc.lit, plain, got, ok)
		}
		if !ok {
			if string(got) != "keep:" {
				t.Errorf("%s: a declined literal left %q in dst", tc.lit, got)
			}
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(tc.lit), &want); err != nil || string(got) != "keep:"+want || len(rest) != 0 {
			t.Errorf("%s: appendUnquoted = %q, encoding/json = %q, %v", tc.lit, got, want, err)
		}
	}
	prop := func(s string) bool {
		lit := AppendString(nil, s)
		var want string
		if err := json.Unmarshal(lit, &want); err != nil {
			return false
		}
		got, rest, ok := appendUnquoted(nil, lit[1:])
		_, n, okScan := unquote(nil, lit[1:], false)
		return ok && len(rest) == 0 && string(got) == want && okScan && n == len(lit)-2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// special's lowest flag is the first byte that ends a plain ASCII run, in any
// eight bytes; the literals above run it over plain runs, escapes and
// multi-byte runes at every offset.
func TestSpecialFindsTheFirstByte(t *testing.T) {
	ends := func(c byte) bool { return c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf }
	prop := func(w uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		first := 8
		for i, c := range b {
			if ends(c) {
				first = i
				break
			}
		}
		m := special(w)
		return first == 8 && m == 0 || first < 8 && bits.TrailingZeros64(m)/8 == first
	}
	// Random words are mostly high bytes: draw bytes from the edges too.
	edges := []byte{0, 0x1f, 0x20, 0x21, '"', '#', '[', '\\', ']', 0x7f, 0x80, 0xff, 'a'}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		var b [8]byte
		for j := range b {
			b[j] = edges[rng.Intn(len(edges))]
		}
		if w := binary.LittleEndian.Uint64(b[:]); !prop(w) {
			t.Fatalf("special(%q) = %#x", b, special(w))
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
}

// SkipStr reads what Str reads, and reports the literal's length as written.
func TestSkipStr(t *testing.T) {
	for _, tc := range []struct {
		lit string
		n   int
		ok  bool
	}{
		{`""`, 0, true}, {`"plain and longer than eight"`, 27, true}, {`"a\nb"`, 4, true},
		{`"é 世界 \u00e9 \ud83d\ude00"`, 29, true}, {"\"raw\nnewline\"", 0, false}, {`"\ud800"`, 0, false},
		{"\"caf\xc3\\n\"", 0, false}, {`"unterminated`, 0, false}, {`plain`, 0, false},
	} {
		var r, s Reader
		r.Reset([]byte(tc.lit))
		s.Reset([]byte(tc.lit))
		n := r.SkipStr()
		s.Str()
		if r.OK() != tc.ok || s.OK() != tc.ok || tc.ok && n != tc.n {
			t.Errorf("%s: SkipStr = %d, OK %v; Str OK %v; want %d, %v", tc.lit, n, r.OK(), s.OK(), tc.n, tc.ok)
		}
	}
}

func TestReader(t *testing.T) {
	var r Reader
	r.Reset([]byte(`{"a":12,"s":"x\ny","t":"x\ny","neg":-3,"ok":true,"xs":[1,2],"ys":[],"o":{"k":1,"m":2}}`))
	r.Expect(`{"a":`)
	if r.Uint() != 12 {
		t.Fatal("Uint")
	}
	if r.Lit(`,"missing":`) {
		t.Fatal("Lit matched a key that is not there")
	}
	r.Expect(`,"s":`)
	s := r.String("")
	r.Expect(`,"t":`)
	if s2 := r.String(s); s != "x\ny" || s2 != s {
		t.Fatalf("String = %q, %q", s, s2)
	}
	r.Expect(`,"neg":`)
	if r.Int() != -3 {
		t.Fatal("Int")
	}
	r.Expect(`,"ok":`)
	if !r.Bool() {
		t.Fatal("Bool")
	}
	r.Expect(`,"xs":[`)
	var xs []uint64
	for r.Elem(len(xs)) {
		xs = append(xs, r.Uint())
	}
	r.Expect(`,"ys":[`)
	if r.Elem(0) {
		t.Fatal("Elem found an element in []")
	}
	r.Expect(`,"o":{`)
	if k := r.Key(true); string(k) != "k" || r.Uint8() != 1 || r.InOrder(0, 1) != 1 {
		t.Fatalf("Key = %q", k)
	}
	if k := r.Key(false); string(k) != "m" || r.Uint() != 2 || r.InOrder(1, 3) != 3 || r.Key(false) != nil {
		t.Fatalf("Key = %q", k)
	}
	r.Expect(`}}`)
	if !r.OK() || len(xs) != 2 || xs[1] != 2 {
		t.Fatalf("OK = %v, xs = %v", r.OK(), xs)
	}

	// Failure is sticky, and trailing input is a failure.
	for _, doc := range []string{`{"a":1} `, `{"a":x}`, `{"a":256}`, `{"a":1`} {
		r.Reset([]byte(doc))
		r.Expect(`{"a":`)
		r.Uint8()
		r.Expect(`}`)
		if r.OK() {
			t.Errorf("%q parsed", doc)
		}
	}
	// Where no key follows its separator Key consumes nothing; a key that is
	// empty, unterminated or without its colon fails the reader; an escape is
	// left as written, for the decoder's switch to match no name with.
	for _, tc := range []struct{ doc, name, rest string }{
		{`}`, "", `}`}, {`,1`, "", `,1`}, {``, "", ``}, {`,"\u0061":1`, `\u0061`, `1`},
		{`,"":1`, "", "bad"}, {`,"a"1`, "", "bad"}, {`,"a`, "", "bad"}, {`,"a\"b":1`, "", "bad"},
	} {
		r.Reset([]byte(tc.doc))
		k := r.Key(false)
		if string(k) != tc.name || r.bad != (tc.rest == "bad") || (!r.bad && string(r.rest()) != tc.rest) {
			t.Errorf("Key(%q) read %q, left %q, failed %v", tc.doc, k, r.rest(), r.bad)
		}
	}
	for _, order := range [][2]int{{0, 0}, {1, 1}, {2, 1}} {
		r.Reset(nil)
		if r.InOrder(order[0], order[1]); r.OK() {
			t.Errorf("InOrder(%d, %d) took the member", order[0], order[1])
		}
	}
}

// A document's chunks are sized by its estimate of elements, and the estimate
// is only what the bytes claim: a first element of three bytes followed by a
// real one and three kilobytes of anything else must not buy a thousand
// elements' worth of room. Each chunk is bounded by what is left of the
// document, so the two together stay under twice its length (plus the eighth
// a size class can round up by); an honest document of the same shape gets
// exactly what it uses.
func TestChunksAreBoundedByTheDocument(t *testing.T) {
	// The least of five readings: TotalAlloc is the process's, and the runtime
	// allocates on its own account now and then (a collection starting, say).
	allocated := func(doc []byte, first string) (bytes uint64, ss []string) {
		bytes = math.MaxUint64
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var r Reader
			r.Reset(doc)
			r.Expect(`[`)
			r.Elems()
			if first != "" {
				r.Elem(0)
				r.Expect(first)
			}
			r.Elem(len(first))
			r.Expect(`{"id":`)
			ss = r.Strings()
			runtime.ReadMemStats(&m1)
			bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		return bytes, ss
	}
	one := `{"id":["0123456789abcdef"]`
	lying := []byte(`[{},` + one + strings.Repeat(`x`, 3000))
	got, ss := allocated(lying, `{}`)
	if len(ss) != 1 || ss[0] != "0123456789abcdef" {
		t.Fatalf("read %q", ss)
	}
	if limit := uint64(2 * len(lying) * 9 / 8); got > limit {
		t.Errorf("a %d-byte document claiming 1,001 elements allocated %d bytes, want at most %d", len(lying), got, limit)
	}
	if got, _ := allocated([]byte(`[`+one), ""); got != 32 {
		t.Errorf("a document of one 16-byte string allocated %d bytes, want 32: the string and its header", got)
	}
}

// Elems estimates from the first element's length: exactly, when the elements
// are alike, what follows the array is shorter than one and there are at most
// MaxElems of them.
func TestElemsEstimatesFromTheFirst(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want int
	}{
		{`]}`, 0},
		{`{"id":1}]}`, 1},
		{`{"id":1},{"id":2},{"id":3}]}`, 3},
		{`{"id":1,"command":"sleep"},{"id":2,"command":"sleep"}],"want_work":true}`, 2},
		{`{"id":1},{"id":22222},{"id":33333}]}`, 4},     // a short first element over-counts
		{`{"id":111},{"id":2},{"id":3}]}`, 2},           // and a long one under-counts
		{strings.Repeat(`{},`, 2000) + `{}]`, MaxElems}, // and no more than MaxElems
	} {
		var r Reader
		r.Reset([]byte(c.doc))
		if got := r.Elems(); got != c.want {
			t.Errorf("Elems of %s = %d, want %d", c.doc, got, c.want)
		}
	}
}

// SkipStrings reads what Strings reads and keeps nothing: the span it read,
// Between the mark before it and the mark after it, is the whole array.
func TestSpanAndSkipStrings(t *testing.T) {
	doc := []byte(`{"a":["x","é \"q\""],"b":[],"c":1}`)
	var r Reader
	r.Reset(doc)
	r.Expect(`{"a":`)
	from := r.Mark()
	r.SkipStrings()
	a := string(r.Between(from, r.Mark()))
	r.Expect(`,"b":`)
	from = r.Mark()
	r.SkipStrings()
	b := string(r.Between(from, r.Mark()))
	r.Expect(`,"c":1}`)
	if !r.OK() || a != `["x","é \"q\""]` || b != `[]` {
		t.Fatalf("OK %v, spans %q and %q", r.OK(), a, b)
	}
	for _, bad := range []string{`["x",1]`, `["x"`, `["\x01"]`, `["\ud800"]`, `"x"`} {
		r.Reset([]byte(bad))
		r.SkipStrings()
		if r.OK() {
			t.Errorf("SkipStrings took %q", bad)
		}
	}
}
