package wsrpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/obs"
)

// startEcho starts a server with an "echo" method plus an "add" method, and
// returns it with its address.
func startEcho(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	opts.Logf = t.Logf
	s := NewServer(opts)
	s.Register("echo", func(_ *Peer, body json.RawMessage) (any, error) {
		var msg string
		if err := json.Unmarshal(body, &msg); err != nil {
			return nil, err
		}
		return msg, nil
	})
	s.Register("add", func(_ *Peer, body json.RawMessage) (any, error) {
		var in [2]int
		if err := json.Unmarshal(body, &in); err != nil {
			return nil, err
		}
		return in[0] + in[1], nil
	})
	s.Register("fail", func(_ *Peer, _ json.RawMessage) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	if err := c.Call("echo", "hello", &got); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("echo = %q", got)
	}
	var sum int
	if err := c.Call("add", [2]int{2, 40}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("add = %d", sum)
	}
}

func TestCallRemoteError(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "deliberate failure" {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("nope", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError for unknown method", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got string
			msg := fmt.Sprintf("msg-%d", i)
			if err := c.Call("echo", msg, &got); err != nil {
				errs <- err
				return
			}
			if got != msg {
				errs <- fmt.Errorf("echo %q = %q", msg, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNotification(t *testing.T) {
	opts := ServerOptions{Logf: func(string, ...any) {}}
	s := NewServer(opts)
	got := make(chan string, 1)
	s.Register("register", func(p *Peer, _ json.RawMessage) (any, error) {
		// Push a notification back to the caller after replying.
		go p.Notify("work-available", "queue-7")
		return "ok", nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr(), ClientOptions{
		OnNotify: func(method string, body json.RawMessage) {
			var v string
			json.Unmarshal(body, &v)
			got <- method + ":" + v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("register", nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "work-available:queue-7" {
			t.Fatalf("notify = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
	}
}

func TestPeerMetaAndDisconnectCallback(t *testing.T) {
	s := NewServer(ServerOptions{Logf: func(string, ...any) {}})
	dropped := make(chan any, 1)
	s.Register("register", func(p *Peer, _ json.RawMessage) (any, error) {
		p.SetMeta("executor-9")
		return nil, nil
	})
	s.OnDisconnect(func(p *Peer) { dropped <- p.Meta() })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call("register", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case meta := <-dropped:
		if meta != "executor-9" {
			t.Fatalf("meta = %v", meta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect callback never fired")
	}
}

// A connection's scratch is held by one call at a time: calls on their own
// goroutines that find it taken make their own, and every call writes all of
// what it holds, which -race reports if two ever share one. Fast handlers,
// one at a time on the read session, always find the last one's.
func TestPeerScratchIsOneCallsAtATime(t *testing.T) {
	s := NewServer(ServerOptions{Logf: func(string, ...any) {}})
	use := func(p *Peer, body json.RawMessage) (any, error) {
		made := 0
		v, _ := p.Scratch().(*[]byte)
		if v == nil {
			v, made = new([]byte), 1
		}
		*v = append((*v)[:0], body...)
		for i := range *v {
			(*v)[i]++
		}
		p.KeepScratch(v)
		return made, nil
	}
	s.Register("slow", use)
	s.RegisterFast("fast", use)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if err := c.Call("slow", "concurrent", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range 20 {
		var made int
		if err := c.Call("fast", "serial", &made); err != nil {
			t.Fatal(err)
		}
		if made != 0 {
			t.Fatalf("fast call %d found no scratch on its connection", i)
		}
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	s := NewServer(ServerOptions{Logf: func(string, ...any) {}})
	block := make(chan struct{})
	s.Register("block", func(_ *Peer, _ json.RawMessage) (any, error) {
		<-block
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); s.Close() }()
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Call("block", nil, nil) }()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never failed")
	}
	// Further calls fail immediately.
	if err := c.Call("block", nil, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close call err = %v", err)
	}
}

func TestSecureConversationRoundTrip(t *testing.T) {
	psk := []byte("falkon-test-preshared-key")
	s := startEcho(t, ServerOptions{Security: SecuritySecureConversation, PSK: psk})
	c, err := Dial(s.Addr(), ClientOptions{Security: SecuritySecureConversation, PSK: psk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		var got string
		msg := fmt.Sprintf("secret-%d", i)
		if err := c.Call("echo", msg, &got); err != nil {
			t.Fatal(err)
		}
		if got != msg {
			t.Fatalf("echo = %q", got)
		}
	}
}

func TestSecureHandshakeRejectsWrongKey(t *testing.T) {
	s := startEcho(t, ServerOptions{Security: SecuritySecureConversation, PSK: []byte("right-key"), Logf: func(string, ...any) {}})
	c, err := Dial(s.Addr(), ClientOptions{Security: SecuritySecureConversation, PSK: []byte("wrong-key")})
	// The client-side proof check fails, or the server closes first; either
	// way the connection must not become usable.
	if err == nil {
		defer c.Close()
		if callErr := c.Call("echo", "x", nil); callErr == nil {
			t.Fatal("call succeeded across mismatched keys")
		}
	}
}

func TestSecureProfileMismatchFails(t *testing.T) {
	s := NewServer(ServerOptions{Security: SecuritySecureConversation, PSK: []byte("k"), Logf: func(string, ...any) {}})
	s.handshake = 300 * time.Millisecond
	s.Register("echo", func(_ *Peer, body json.RawMessage) (any, error) { return body, nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), ClientOptions{Security: SecurityNone})
	if err != nil {
		return
	}
	defer c.Close()
	// The server reads the plaintext frame as a nonce and waits for a proof
	// that never comes, while the client reads the server's random nonce as
	// a length prefix — one time in ~64 a plausible one, and then waits for
	// a frame body. The handshake deadline ends it: the server hangs up and
	// the call fails by itself.
	if callErr := c.Call("echo", "x", nil); callErr == nil {
		t.Fatal("plaintext client talked to secure server")
	}
}

func TestSecurityProfileString(t *testing.T) {
	if SecurityNone.String() != "none" {
		t.Fatal("SecurityNone name")
	}
	if SecuritySecureConversation.String() != "secure-conversation" {
		t.Fatal("SecuritySecureConversation name")
	}
	if SecurityProfile(9).String() != "security(9)" {
		t.Fatal("unknown profile name")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, MaxFrameSize+1)
	for i := range big {
		big[i] = 'a'
	}
	err = c.Call("echo", string(big), nil)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	s := NewServer(ServerOptions{})
	s.Register("m", func(*Peer, json.RawMessage) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	s.Register("m", func(*Peer, json.RawMessage) (any, error) { return nil, nil })
}

// The client's per-method instruments are looked up once and cached; their
// registry keys — what /metrics exposes — are the ones every call used to
// build: wsrpc_client_calls_total{method="..."} and
// wsrpc_client_seconds{method="..."}.
func TestClientMethodMetrics(t *testing.T) {
	s := startEcho(t, ServerOptions{})
	reg := obs.NewRegistry()
	c, err := Dial(s.Addr(), ClientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ { // first use of a method races itself
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := c.Call("echo", "x", nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Call("add", [2]int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for key, want := range map[string]int64{
		`wsrpc_client_calls_total{method="echo"}`: 20,
		`wsrpc_client_calls_total{method="add"}`:  1,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d (counters: %v)", key, got, want, snap.Counters)
		}
	}
	if h := snap.Histograms[`wsrpc_client_seconds{method="echo"}`]; h.Count != 20 {
		t.Errorf("echo latency histogram holds %d observations, want 20", h.Count)
	}
}
