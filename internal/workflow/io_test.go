package workflow

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

const demoJSON = `{"name": "demo", "nodes": [
  {"id": "a", "stage": "s1", "duration_ms": 1000},
  {"id": "b", "stage": "s2", "duration_ms": 500, "deps": ["a"]},
  {"id": "c", "stage": "s2", "duration_ms": 500, "deps": ["a"]}
]}`

func TestLoadJSON(t *testing.T) {
	g, err := LoadJSON(strings.NewReader(demoJSON))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "demo" || g.Len() != 3 {
		t.Fatalf("graph = %s/%d", g.Name, g.Len())
	}
	if got := g.Node("b").Duration; got != 500*time.Millisecond {
		t.Fatalf("duration = %v", got)
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 1500*time.Millisecond {
		t.Fatalf("critical path = %v", cp)
	}
}

func TestLoadJSONRejectsBadGraphs(t *testing.T) {
	cases := []string{
		`{"nodes": [{"id": "a", "deps": ["ghost"]}]}`, // missing dep
		`{"nodes": [{"id": "a", "deps": ["a"]}]}`,     // self cycle
		`{"nodes": [{"id": "a"}, {"id": "a"}]}`,       // duplicate
		`{"nodes": [{"id": "a", "duration_ms": -5}]}`, // negative
		`{"nodes": [{"id": "a", "bogus_field": 1}]}`,  // unknown field
		`{nodes}`, // not JSON
	}
	for _, c := range cases {
		if _, err := LoadJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	in, err := LoadJSON(strings.NewReader(demoJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() || out.Name != in.Name {
		t.Fatalf("round trip lost structure: %d/%s", out.Len(), out.Name)
	}
	for _, id := range in.order {
		a, b := in.Node(id), out.Node(id)
		if b == nil || a.Duration != b.Duration || a.Stage != b.Stage || len(a.Deps) != len(b.Deps) {
			t.Fatalf("node %q differs", id)
		}
	}
}

func TestSaveBuiltinGraphs(t *testing.T) {
	for _, g := range []*Graph{FMRIGraph(10), MontageGraph()} {
		var buf bytes.Buffer
		if err := g.SaveJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := LoadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if out.Len() != g.Len() {
			t.Fatalf("%s: %d != %d", g.Name, out.Len(), g.Len())
		}
	}
}

func TestLoadJSONDefaultsName(t *testing.T) {
	g, err := LoadJSON(strings.NewReader(`{"nodes": [{"id": "a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "workflow" {
		t.Fatalf("name = %q", g.Name)
	}
}
