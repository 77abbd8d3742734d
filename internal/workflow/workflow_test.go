package workflow

import (
	"fmt"
	"testing"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func chainGraph(n int, dur time.Duration) *Graph {
	g := NewGraph("chain")
	for i := 0; i < n; i++ {
		node := &Node{ID: fmt.Sprintf("n%d", i), Stage: "s", Duration: dur}
		if i > 0 {
			node.Deps = []string{fmt.Sprintf("n%d", i-1)}
		}
		g.MustAdd(node)
	}
	return g
}

func TestLevelsSimpleDiamond(t *testing.T) {
	g := NewGraph("diamond")
	g.MustAdd(&Node{ID: "a"})
	g.MustAdd(&Node{ID: "b", Deps: []string{"a"}})
	g.MustAdd(&Node{ID: "c", Deps: []string{"a"}})
	g.MustAdd(&Node{ID: "d", Deps: []string{"b", "c"}})
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	if levels[0][0].ID != "a" || len(levels[1]) != 2 || levels[2][0].ID != "d" {
		t.Fatalf("levels = %v", levels)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph("cycle")
	g.MustAdd(&Node{ID: "a", Deps: []string{"b"}})
	g.MustAdd(&Node{ID: "b", Deps: []string{"a"}})
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestMissingDependency(t *testing.T) {
	g := NewGraph("missing")
	g.MustAdd(&Node{ID: "a", Deps: []string{"ghost"}})
	if err := g.Validate(); err == nil {
		t.Fatal("missing dep not detected")
	}
}

func TestDuplicateNode(t *testing.T) {
	g := NewGraph("dup")
	g.MustAdd(&Node{ID: "a"})
	if err := g.Add(&Node{ID: "a"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestCriticalPath(t *testing.T) {
	g := chainGraph(5, 10*time.Second)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 50*time.Second {
		t.Fatalf("critical path = %v, want 50s", cp)
	}
}

func TestClusterPartition(t *testing.T) {
	nodes := make([]*Node, 10)
	for i := range nodes {
		nodes[i] = &Node{ID: fmt.Sprintf("n%d", i)}
	}
	groups := Cluster(nodes, 3)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for _, grp := range groups {
		total += len(grp)
	}
	if total != 10 {
		t.Fatalf("clustered %d of 10", total)
	}
	// More clusters than nodes: one node per cluster.
	if got := Cluster(nodes[:2], 8); len(got) != 2 {
		t.Fatalf("overclustered: %d groups", len(got))
	}
}

func TestRunOnFalkonModelRespectsDependencies(t *testing.T) {
	e := sim.New(1)
	m := simfalkon.New(e, simfalkon.NoSecurity())
	for i := 0; i < 4; i++ {
		m.AddExecutor(0, nil)
	}
	g := chainGraph(5, time.Second)
	var rep Report
	done := false
	err := Run(g, &FalkonProvider{Model: m}, func(r Report) { rep = r; done = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !done {
		t.Fatal("workflow incomplete")
	}
	// A 5-node serial chain of 1 s tasks takes >= 5 s regardless of
	// executor count.
	if rep.Makespan < 5*time.Second {
		t.Fatalf("makespan = %v, want >= 5s (chain)", rep.Makespan)
	}
	if rep.Nodes != 5 {
		t.Fatalf("nodes = %d", rep.Nodes)
	}
}

func TestRunParallelWidthExploitsExecutors(t *testing.T) {
	e := sim.New(1)
	m := simfalkon.New(e, simfalkon.NoSecurity())
	for i := 0; i < 16; i++ {
		m.AddExecutor(0, nil)
	}
	g := NewGraph("wide")
	for i := 0; i < 16; i++ {
		g.MustAdd(&Node{ID: fmt.Sprintf("w%d", i), Stage: "w", Duration: 10 * time.Second})
	}
	var rep Report
	if err := Run(g, &FalkonProvider{Model: m, Bundle: 16}, func(r Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if rep.Makespan == 0 || rep.Makespan > 12*time.Second {
		t.Fatalf("makespan = %v, want ~10s with 16 executors", rep.Makespan)
	}
}

func TestRunOnGramProvider(t *testing.T) {
	e := sim.New(1)
	l := lrm.New(e, lrm.PBS(), 16)
	gw := lrm.NewGateway(e, l, lrm.GRAM4())
	g := chainGraph(3, time.Second)
	var rep Report
	if err := Run(g, &GramProvider{Gateway: gw}, func(r Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if rep.Makespan == 0 {
		t.Fatal("incomplete")
	}
	// Each node pays GRAM+PBS overheads; a 3-chain takes minutes.
	if rep.Makespan < 2*time.Minute {
		t.Fatalf("makespan = %v, suspiciously fast for GRAM4+PBS", rep.Makespan)
	}
}

func TestClusteredProviderFasterThanDirect(t *testing.T) {
	run := func(p func(gw *lrm.Gateway) Provider) time.Duration {
		e := sim.New(1)
		l := lrm.New(e, lrm.PBS(), 16)
		gw := lrm.NewGateway(e, l, lrm.GRAM4())
		g := NewGraph("wide")
		for i := 0; i < 64; i++ {
			g.MustAdd(&Node{ID: fmt.Sprintf("n%d", i), Duration: 2 * time.Second})
		}
		var rep Report
		if err := Run(g, p(gw), func(r Report) { rep = r }); err != nil {
			t.Fatal(err)
		}
		e.Run()
		return rep.Makespan
	}
	direct := run(func(gw *lrm.Gateway) Provider { return &GramProvider{Gateway: gw} })
	clustered := run(func(gw *lrm.Gateway) Provider { return &ClusteredGramProvider{Gateway: gw, Clusters: 8} })
	if direct == 0 || clustered == 0 {
		t.Fatal("incomplete runs")
	}
	if clustered >= direct {
		t.Fatalf("clustered (%v) not faster than direct (%v)", clustered, direct)
	}
}

func TestFMRIGraphShape(t *testing.T) {
	g := FMRIGraph(120)
	if g.Len() != 480 {
		t.Fatalf("nodes = %d, want 480", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	stages := g.StageNames()
	want := []string{"reorient", "realign", "reslice", "smooth"}
	if len(stages) != 4 {
		t.Fatalf("stages = %v", stages)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 12*time.Second {
		t.Fatalf("critical path = %v, want 12s (2+4+3+3)", cp)
	}
}

func TestMontageGraphShape(t *testing.T) {
	g := MontageGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 487+2200+487+121+1 {
		t.Fatalf("nodes = %d", g.Len())
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 5 {
		t.Fatalf("levels = %d, want 5 pipeline stages", len(levels))
	}
	if len(levels[0]) != 487 || len(levels[4]) != 1 {
		t.Fatalf("level sizes: first=%d last=%d", len(levels[0]), len(levels[4]))
	}
}

func TestRunEmptyGraphErrors(t *testing.T) {
	g := NewGraph("empty")
	if err := Run(g, &GramProvider{}, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestDataDrivenBeatsStageBarriers(t *testing.T) {
	// Two independent chains: data-driven execution overlaps them even
	// though a naive stage-barrier runner would serialize the long one
	// behind the short one's levels.
	e := sim.New(1)
	m := simfalkon.New(e, simfalkon.NoSecurity())
	m.AddExecutor(0, nil)
	m.AddExecutor(0, nil)
	g := NewGraph("two-chains")
	for i := 0; i < 4; i++ {
		a := &Node{ID: fmt.Sprintf("a%d", i), Duration: 2 * time.Second}
		b := &Node{ID: fmt.Sprintf("b%d", i), Duration: 2 * time.Second}
		if i > 0 {
			a.Deps = []string{fmt.Sprintf("a%d", i-1)}
			b.Deps = []string{fmt.Sprintf("b%d", i-1)}
		}
		g.MustAdd(a)
		g.MustAdd(b)
	}
	var rep Report
	if err := Run(g, &FalkonProvider{Model: m}, func(r Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Two 8 s chains on two executors should finish in ~8 s, not 16 s.
	if rep.Makespan == 0 || rep.Makespan > 10*time.Second {
		t.Fatalf("makespan = %v, want ~8s (chains overlap)", rep.Makespan)
	}
}

func TestFailurePropagationSkipsDependents(t *testing.T) {
	// Graph: fail -> mid -> leaf, plus an independent chain ok -> ok2.
	// The failed branch skips its dependents; the healthy branch finishes.
	e := sim.New(21)
	p := simfalkon.NoSecurity()
	p.FailureProb = 1.0 // everything fails...
	p.MaxRetries = 1
	m := simfalkon.New(e, p)
	m.AddExecutor(0, nil)
	m.AddExecutor(0, nil)

	g := NewGraph("partial-failure")
	g.MustAdd(&Node{ID: "fail", Duration: time.Second})
	g.MustAdd(&Node{ID: "mid", Duration: time.Second, Deps: []string{"fail"}})
	g.MustAdd(&Node{ID: "leaf", Duration: time.Second, Deps: []string{"mid"}})
	var rep Report
	if err := Run(g, &FalkonProvider{Model: m}, func(r Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if rep.Makespan == 0 {
		t.Fatal("workflow never completed")
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != "fail" {
		t.Fatalf("failed = %v", rep.Failed)
	}
	if len(rep.Skipped) != 2 {
		t.Fatalf("skipped = %v, want mid and leaf", rep.Skipped)
	}
}
