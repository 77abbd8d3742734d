package wsrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Property: the hand-rolled envelope writer (appendFrame) and the reference
// encoding/json encoder (encodeFrame) produce wire bytes that decode to the
// same frame. Byte equality is NOT required — encoding/json HTML-escapes
// <, >, and & where appendFrame does not — decode equivalence is the
// compatibility bar the wire format defines.
func TestAppendFrameDecodeEquivalence(t *testing.T) {
	prop := func(kindSel uint8, seq uint64, method, errStr, bodyStr string, hasBody bool,
		recvNS, sendNS int64) bool {
		kind := frameKind(kindSel%3) + kindCall
		var body []byte
		if hasBody {
			b, err := json.Marshal(bodyStr)
			if err != nil {
				return false
			}
			body = b
		}
		meta := envMeta{recvNS: recvNS, sendNS: sendNS}
		raw := appendFrame(nil, kind, seq, method, errStr, meta, frameBody{raw: body})
		got, err := decodeFrame(raw)
		if err != nil {
			t.Logf("appendFrame output rejected: %s: %v", raw, err)
			return false
		}
		refRaw, err := encodeFrame(&frame{Kind: kind, Seq: seq, Method: method, Err: errStr,
			RecvNS: recvNS, SendNS: sendNS, Body: body})
		if err != nil {
			return false
		}
		want, err := decodeFrame(refRaw)
		if err != nil {
			return false
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Method != want.Method || got.Err != want.Err ||
			got.RecvNS != want.RecvNS || got.SendNS != want.SendNS ||
			!bytes.Equal(got.Body, want.Body) {
			t.Logf("appendFrame=%s encodeFrame=%s", raw, refRaw)
			return false
		}
		// The fast parser must agree with the robust one whenever it accepts
		// the frame at all.
		if v, ok := fastParseFrame(raw); ok {
			if v.kind != want.Kind || v.seq != want.Seq || string(v.method) != want.Method ||
				string(v.errs) != want.Err || v.recvNS != want.RecvNS || v.sendNS != want.SendNS || !bytes.Equal(v.body, want.Body) {
				t.Logf("fastParseFrame diverges on %s", raw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: fastParseFrame never accepts a frame and report fields different
// from decodeFrame's, whatever bytes arrive. And an older peer's envelope,
// which may carry a trace (tr) and parent span (ps), reads as the same frame
// without them: the fast parse refuses it and the fallback drops the keys.
func TestFastParseAgreesWithDecode(t *testing.T) {
	prop := func(raw []byte) bool {
		v, ok := fastParseFrame(raw)
		if !ok {
			return true // bailed to the robust path; nothing to compare
		}
		f, err := decodeFrame(raw)
		if err != nil {
			return false // fast parser accepted what the robust one rejects
		}
		return v.kind == f.Kind && v.seq == f.Seq && string(v.method) == f.Method &&
			string(v.errs) == f.Err && v.recvNS == f.RecvNS && v.sendNS == f.SendNS &&
			bytes.Equal(v.body, f.Body)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ old, now string }{
		{`{"k":1,"seq":7,"m":"falkon.submit","tr":9,"b":{"epr":"e"}}`, `{"k":1,"seq":7,"m":"falkon.submit","b":{"epr":"e"}}`},
		{`{"k":1,"seq":8,"m":"falkon.deliver","tr":9,"ps":3,"b":[1]}`, `{"k":1,"seq":8,"m":"falkon.deliver","b":[1]}`},
		{`{"k":2,"seq":8,"tr":9,"rt":5,"st":6,"b":{}}`, `{"k":2,"seq":8,"rt":5,"st":6,"b":{}}`},
		{`{"k":2,"seq":9,"e":"boom","tr":1}`, `{"k":2,"seq":9,"e":"boom"}`},
	} {
		if _, ok := fastParseFrame([]byte(c.old)); ok {
			t.Errorf("fastParseFrame accepts %s, which is not canonical", c.old)
		}
		got, err := parseFrame([]byte(c.old))
		if err != nil {
			t.Fatalf("parseFrame(%s): %v", c.old, err)
		}
		want, ok := fastParseFrame([]byte(c.now))
		if !ok {
			t.Fatalf("fastParseFrame refuses %s", c.now)
		}
		if got.kind != want.kind || got.seq != want.seq || !bytes.Equal(got.method, want.method) ||
			!bytes.Equal(got.errs, want.errs) || got.recvNS != want.recvNS || got.sendNS != want.sendNS ||
			!bytes.Equal(got.body, want.body) {
			t.Errorf("%s reads as %+v, want %+v", c.old, got, want)
		}
	}
}

// tcpPair returns two connected frameConns over loopback TCP, client side
// first.
func tcpPair(t *testing.T, profile SecurityProfile, psk []byte) (frameConn, frameConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		fc  frameConn
		err error
	}
	srvc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvc <- res{nil, err}
			return
		}
		fc, err := newFrameConn(c, profile, psk, false, flushStats{}, handshakeTimeout, writeStall)
		srvc <- res{fc, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := newFrameConn(cc, profile, psk, true, flushStats{}, handshakeTimeout, writeStall)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-srvc
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	t.Cleanup(func() { cli.Close(); sr.fc.Close() })
	return cli, sr.fc
}

// errStop is what a test's frame function returns to end its read session.
var errStop = errors.New("stop")

// Concurrent writers force the cork to coalesce several frames into single
// socket writes; every frame must still arrive intact, and frames from one
// writer must arrive in the order it wrote them.
func TestCoalescedWritesDecodeIdentically(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile SecurityProfile
		psk     []byte
	}{
		{"plain", SecurityNone, nil},
		{"secure", SecuritySecureConversation, []byte("coalesce-test-key")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t, tc.profile, tc.psk)
			const writers, frames = 4, 50
			rng := rand.New(rand.NewSource(1))
			bodies := make(map[uint64]string, writers*frames)
			for g := 0; g < writers; g++ {
				for i := 0; i < frames; i++ {
					bodies[uint64(g*1000+i)] = fmt.Sprintf("g%d-%d-%d", g, i, rng.Int63())
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						seq := uint64(g*1000 + i)
						body, _ := json.Marshal(bodies[seq])
						if _, err := cli.WriteEnvelope(kindCall, seq, "m", "", envMeta{}, frameBody{raw: body}); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			// The writers index bodies until wg.Wait, so the reader must not
			// mutate it: it counts frames, and the per-writer order check below
			// is what rejects a duplicate.
			lastSeq := make(map[int]int) // writer -> last frame index seen
			n := 0
			err := srv.ReadFrames(func(raw []byte) error {
				f, err := decodeFrame(raw)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				want, ok := bodies[f.Seq]
				if !ok {
					t.Fatalf("unexpected seq %d", f.Seq)
				}
				var got string
				if err := json.Unmarshal(f.Body, &got); err != nil || got != want {
					t.Fatalf("seq %d body = %q (%v), want %q", f.Seq, got, err, want)
				}
				g, i := int(f.Seq)/1000, int(f.Seq)%1000
				if last, seen := lastSeq[g]; seen && i <= last {
					t.Fatalf("writer %d frame %d arrived after %d", g, i, last)
				}
				lastSeq[g] = i
				if n++; n == writers*frames {
					return errStop
				}
				return nil
			})
			if err != errStop {
				t.Fatal(err)
			}
			wg.Wait()
		})
	}
}

// legacyWriteFrame frames a payload the way the pre-fast-path code did:
// encoding/json envelope behind a 4-byte big-endian length prefix.
func legacyWriteFrame(w io.Writer, f *frame) error {
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// legacyReadFrame reads one length-prefixed frame and decodes it with plain
// encoding/json.
func legacyReadFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var f frame
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// An old client — manual length-prefixed json.Marshal framing, no cork, no
// fast parse — must interoperate with the new server byte-for-byte.
func TestWireCompatOldClientNewServer(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	body, _ := json.Marshal("ping from 2007")
	if err := legacyWriteFrame(conn, &frame{Kind: kindCall, Seq: 7, Method: "echo", Body: body}); err != nil {
		t.Fatal(err)
	}
	reply, err := legacyReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != kindReply || reply.Seq != 7 || reply.Err != "" {
		t.Fatalf("reply = %+v", reply)
	}
	var got string
	if err := json.Unmarshal(reply.Body, &got); err != nil || got != "ping from 2007" {
		t.Fatalf("reply body = %q, %v", got, err)
	}
}

// The new client's frames must decode with plain encoding/json — an old
// server understands everything the fast path emits.
func TestWireCompatNewClientOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := legacyReadFrame(c)
			if err != nil {
				return
			}
			if f.Kind != kindCall || f.Method != "echo" {
				legacyWriteFrame(c, &frame{Kind: kindReply, Seq: f.Seq, Err: "old server: unexpected frame"})
				continue
			}
			legacyWriteFrame(c, &frame{Kind: kindReply, Seq: f.Seq, Body: f.Body})
		}
	}()
	c, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	if err := c.Call("echo", "hello old server", &got); err != nil || got != "hello old server" {
		t.Fatalf("call = %q, %v", got, err)
	}
}
