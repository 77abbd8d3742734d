package wsrpc

import (
	"encoding/json"
	"testing"
)

// startBenchServer boots an echo server for transport benchmarks.
func startBenchServer(b *testing.B, opts ServerOptions) *Server {
	b.Helper()
	opts.Logf = func(string, ...any) {}
	s := NewServer(opts)
	s.Register("echo", func(_ *Peer, body json.RawMessage) (any, error) {
		var msg string
		if err := json.Unmarshal(body, &msg); err != nil {
			return nil, err
		}
		return msg, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkCallRoundTrip measures one WS-style call over loopback — the
// live analogue of the paper's per-task dispatch cost (1/487 s on GT4).
func BenchmarkCallRoundTrip(b *testing.B) {
	b.ReportAllocs()
	s := startBenchServer(b, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got string
		if err := c.Call("echo", "ping", &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecureCallRoundTrip measures the same call under the
// AES-CTR+HMAC profile — the GSISecureConversation analogue.
func BenchmarkSecureCallRoundTrip(b *testing.B) {
	b.ReportAllocs()
	psk := []byte("bench-key")
	s := startBenchServer(b, ServerOptions{Security: SecuritySecureConversation, PSK: psk})
	c, err := Dial(s.Addr(), ClientOptions{Security: SecuritySecureConversation, PSK: psk})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got string
		if err := c.Call("echo", "ping", &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentCalls measures pipelined call throughput (the client
// multiplexes many in-flight calls on one connection).
func BenchmarkConcurrentCalls(b *testing.B) {
	b.ReportAllocs()
	s := startBenchServer(b, ServerOptions{})
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var got string
			if err := c.Call("echo", "ping", &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
