package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"time"
)

// DebugServer is the HTTP side of the exposition: a stdlib server mounting
// the Prometheus-style /metrics text endpoint, a /events.json trace dump,
// and net/http/pprof under /debug/pprof/. Daemons start one behind the
// -debug-addr flag.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugOptions configures ServeDebugOpts. Any field may be zero: missing
// pieces simply leave their endpoint empty.
type DebugOptions struct {
	// Snap produces the /metrics view; called per request.
	Snap func() MetricsSnapshot
	// Tracer backs /events.json and /spans.jsonl.
	Tracer *Tracer
	// SpanHeader produces the /spans.jsonl dump header; called per request
	// so a live clock-offset estimate is re-read on every dump.
	SpanHeader func() DumpHeader
}

// ServeDebug binds addr (":0" picks an ephemeral port) and serves the
// debug endpoints for reg and tr in the background. Either may be nil.
func ServeDebug(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	return ServeDebugOpts(addr, DebugOptions{Snap: reg.Snapshot, Tracer: tr})
}

// ServeDebugOpts is the full-option debug server constructor.
func ServeDebugOpts(addr string, o DebugOptions) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	snap := o.Snap
	if snap == nil {
		snap = func() MetricsSnapshot { return MetricsSnapshot{} }
	}
	tr := o.Tracer
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s := snap()
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		// The process's own heap objects (live and not yet swept) and
		// goroutines, read at the scrape through runtime/metrics, which
		// does not stop the world as runtime.ReadMemStats does.
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		metrics.Read(ms)
		s.Gauges["falkon_process_heap_bytes"] = int64(ms[0].Value.Uint64())
		s.Gauges["falkon_process_goroutines"] = int64(ms[1].Value.Uint64())
		_ = s.WriteProm(w)
	})
	mux.HandleFunc("/spans.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		var h DumpHeader
		if o.SpanHeader != nil {
			h = o.SpanHeader()
		}
		w.Header().Set("Content-Type", "application/jsonl")
		_ = tr.DumpJSONL(w, h)
	})
	mux.HandleFunc("/events.json", func(w http.ResponseWriter, req *http.Request) {
		since, _ := strconv.ParseUint(req.URL.Query().Get("since"), 10, 64)
		max, _ := strconv.Atoi(req.URL.Query().Get("max"))
		events, next := tr.Since(since, max)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Events  []Event `json:"events"`
			NextSeq uint64  `json:"next_seq"`
		}{events, next})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
