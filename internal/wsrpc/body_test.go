package wsrpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/jsonwire"
)

// selfCoded is a body with its own codec. Its AppendJSON writes a "via"
// marker json.Marshal would not, so a test can tell which path a body took.
type selfCoded struct {
	N    int    `json:"n"`
	Via  string `json:"via,omitempty"`
	Text string `json:"text,omitempty"`
}

var selfDecodes atomic.Int64

func (v selfCoded) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"n":`...)
	dst = jsonwire.AppendInt(dst, int64(v.N))
	dst = append(dst, `,"via":"append","text":`...)
	dst = jsonwire.AppendString(dst, v.Text)
	return append(dst, '}')
}

func (v *selfCoded) DecodeJSON(b []byte) error {
	selfDecodes.Add(1)
	type plain selfCoded // no methods: encoding/json does the work here
	return json.Unmarshal(b, (*plain)(v))
}

// Call arguments, handler replies and notifications that implement
// BodyAppender are written by their own AppendJSON, and a reply that
// implements BodyDecoder is read by its own DecodeJSON — on both profiles,
// which the key alone selects, and for the duplicated push a fault run sends.
func TestSelfCodedBodies(t *testing.T) {
	for _, psk := range [][]byte{nil, []byte("body-test-key")} {
		t.Run(profileFor(SecurityNone, psk).String(), func(t *testing.T) {
			s := NewServer(ServerOptions{PSK: psk, Logf: t.Logf, Faults: dupAll{}})
			s.Register("bounce", func(p *Peer, body json.RawMessage) (any, error) {
				var in selfCoded
				if err := json.Unmarshal(body, &in); err != nil {
					return nil, err
				}
				if in.Via != "append" {
					return nil, fmt.Errorf("argument came through json.Marshal: %s", body)
				}
				if err := p.Notify("pushed", selfCoded{N: in.N + 1, Text: in.Text}); err != nil {
					return nil, err
				}
				return selfCoded{N: in.N + 2, Text: in.Text}, nil
			})
			if err := s.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			pushed := make(chan selfCoded, 2)
			c, err := Dial(s.Addr(), ClientOptions{PSK: psk, OnNotify: func(m string, body json.RawMessage) {
				var v selfCoded
				if err := json.Unmarshal(body, &v); err != nil {
					t.Errorf("notify body %s: %v", body, err)
				}
				pushed <- v
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			text := "quote \" and newline \n and é"
			before := selfDecodes.Load()
			var reply selfCoded
			if err := c.Call("bounce", selfCoded{N: 1, Text: text}, &reply); err != nil {
				t.Fatal(err)
			}
			if want := (selfCoded{N: 3, Via: "append", Text: text}); reply != want {
				t.Fatalf("reply = %+v, want %+v", reply, want)
			}
			if selfDecodes.Load() != before+1 {
				t.Fatal("the reply was not decoded by its DecodeJSON")
			}
			for i := 0; i < 2; i++ { // dupAll doubles every push
				select {
				case v := <-pushed:
					if want := (selfCoded{N: 2, Via: "append", Text: text}); v != want {
						t.Fatalf("push %d = %+v, want %+v", i, v, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("push %d never arrived", i)
				}
			}
		})
	}
}

// rawArg is a call argument spliced into its frame as it is, so that sending
// it copies nothing on the caller's side.
type rawArg []byte

func (a *rawArg) AppendJSON(dst []byte) []byte { return append(dst, *a...) }

// A Register'ed handler runs beside further reads, so it is handed a copy of
// its body: one recycled once its reply is out, and its handler's alone until
// then.
func TestGoroutineBody(t *testing.T) {
	fill := func(c string) rawArg { return rawArg(`"` + strings.Repeat(c, 6<<10-2) + `"`) }
	a, b := fill("a"), fill("b")
	held, release := make(chan struct{}, 1), make(chan struct{})
	s := NewServer(ServerOptions{Logf: t.Logf})
	s.Register("take", func(*Peer, json.RawMessage) (any, error) { return nil, nil })
	s.Register("hold", func(_ *Peer, body json.RawMessage) (any, error) {
		held <- struct{}{}
		<-release
		if !bytes.Equal(body, a) {
			return nil, fmt.Errorf("the body changed under its handler: %.16q…", body)
		}
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	take := func(t *testing.T, arg *rawArg) {
		t.Helper()
		if err := c.Call("take", arg, nil); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("recycled", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			take(t, &a) // the spare, the cork and the read buffer reach their sizes
		}
		const calls = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			take(t, &a)
		}
		runtime.ReadMemStats(&m1)
		perCall := float64(m1.TotalAlloc-m0.TotalAlloc) / calls
		t.Logf("%.0f bytes allocated per call with a %d-byte argument", perCall, len(a))
		if perCall >= float64(len(a))/2 {
			t.Errorf("%.0f bytes allocated per call, want under %d: the body's copy is not recycled", perCall, len(a)/2)
		}
	})

	t.Run("own", func(t *testing.T) {
		done := make(chan error, 1)
		go func() { done <- c.Call("hold", &a, nil) }()
		select {
		case <-held:
		case <-time.After(5 * time.Second):
			close(release) // or the server's Close waits on the handler for ever
			t.Fatal("the held call never reached its handler")
		}
		take(t, &b) // answered while the first handler still holds its body
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// dupAll is a ConnFaults that duplicates every notify and nothing else.
type dupAll struct{ ConnFaults }

func (dupAll) WrapConn(c net.Conn) net.Conn { return c }
func (dupAll) DupNotify() bool              { return true }

// FuzzFrameEnvelope holds appendFrame/fastParseFrame to the reference pair
// encodeFrame/decodeFrame. Written by either encoder, an envelope reads the
// same through either parser; and whatever bytes the fast parser accepts
// around a well-formed body, the reference parser accepts with the same
// fields — so the shortcut never widens or bends the wire language.
func FuzzFrameEnvelope(f *testing.F) {
	f.Add([]byte(`{"k":1,"seq":7,"m":"falkon.submit","b":{"epr":"e","tasks":null}}`), uint8(0), uint64(7), "falkon.submit", "", int64(0), int64(0))
	f.Add([]byte(`{"k":2,"seq":7,"e":"no such \"method\"","rt":-1,"st":1700000000000000000}`), uint8(1), uint64(1<<63), "", "boom\n<é>", int64(-1), int64(1<<62))
	f.Add([]byte(`{"k":03,"seq":18446744073709551616,"m":"caf\xc3","b":[1] }`), uint8(2), uint64(0), "m\x00\xff", "", int64(1), int64(1))
	f.Add([]byte(` {"seq":1,"k":3,"b":"reordered"}`), uint8(2), uint64(0), "", "", int64(0), int64(0))
	// An older peer's envelope, with the trace fields this one no longer has.
	f.Add([]byte(`{"k":1,"seq":7,"m":"falkon.deliver","tr":9,"ps":3,"b":{"executor_id":"x"}}`), uint8(0), uint64(7), "falkon.deliver", "", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, kindSel uint8, seq uint64, method, errStr string, recvNS, sendNS int64) {
		// Arbitrary bytes: accepted by the shortcut implies accepted, and read
		// the same, by the reference (given a body that is JSON at all — the
		// shortcut does not look inside it, its consumer does).
		if v, ok := fastParseFrame(raw); ok && (len(v.body) == 0 || json.Valid(v.body)) {
			ref, err := decodeFrame(raw)
			if err != nil {
				t.Fatalf("fastParseFrame accepts %q, decodeFrame rejects it: %v", raw, err)
			}
			if !sameFrame(v, ref) {
				t.Fatalf("%q: fastParseFrame read %+v, decodeFrame %+v", raw, v, ref)
			}
		}

		// A generated envelope, through both encoders and both parsers.
		body := raw
		if !json.Valid(body) {
			body, _ = json.Marshal(string(raw))
		}
		kind := frameKind(kindSel%3) + kindCall
		meta := envMeta{recvNS: recvNS, sendNS: sendNS}
		mine := appendFrame(nil, kind, seq, method, errStr, meta, frameBody{raw: body})
		refRaw, err := encodeFrame(&frame{Kind: kind, Seq: seq, Method: method, Err: errStr,
			RecvNS: recvNS, SendNS: sendNS, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeFrame(refRaw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeFrame(mine)
		if err != nil {
			t.Fatalf("decodeFrame rejects appendFrame output %q: %v", mine, err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Method != want.Method || got.Err != want.Err ||
			got.RecvNS != want.RecvNS || got.SendNS != want.SendNS || !sameJSON(got.Body, want.Body) {
			t.Fatalf("appendFrame wrote %q, encodeFrame %q: they decode differently", mine, refRaw)
		}
		for _, enc := range [][]byte{mine, refRaw} {
			if v, ok := fastParseFrame(enc); ok && !sameFrame(v, want) {
				t.Fatalf("%q: fastParseFrame read %+v, decodeFrame %+v", enc, v, want)
			}
		}
	})
}

// sameFrame compares a fast-parsed view with a reference-decoded frame.
func sameFrame(v frameView, f *frame) bool {
	return v.kind == f.Kind && v.seq == f.Seq && string(v.method) == f.Method && string(v.errs) == f.Err &&
		v.recvNS == f.RecvNS && v.sendNS == f.SendNS &&
		sameJSON(v.body, f.Body)
}

// sameJSON reports whether two bodies are the same document. Bytes may
// differ: appendFrame splices a body in as given, while encoding/json
// compacts a RawMessage and escapes <, > and & inside it.
func sameJSON(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	var va, vb any
	da, db := json.NewDecoder(bytes.NewReader(a)), json.NewDecoder(bytes.NewReader(b))
	da.UseNumber()
	db.UseNumber()
	return da.Decode(&va) == nil && db.Decode(&vb) == nil && reflect.DeepEqual(va, vb)
}
