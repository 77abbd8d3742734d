package workflow

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

// randomDAG builds a random layered DAG: n nodes, each depending on a
// random subset of earlier nodes (guaranteeing acyclicity).
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := NewGraph("random")
	for i := 0; i < n; i++ {
		node := &Node{
			ID:       fmt.Sprintf("n%d", i),
			Stage:    fmt.Sprintf("s%d", i%3),
			Duration: time.Duration(rng.Intn(5)) * 100 * time.Millisecond,
		}
		// Up to 3 deps among earlier nodes.
		if i > 0 {
			for d := 0; d < rng.Intn(4); d++ {
				node.Deps = append(node.Deps, fmt.Sprintf("n%d", rng.Intn(i)))
			}
			node.Deps = dedup(node.Deps)
		}
		g.MustAdd(node)
	}
	return g
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// TestRandomDAGsRespectDependencies: for random DAGs executed on the
// Falkon model, every node finishes after all of its dependencies, and
// every node runs exactly once.
func TestRandomDAGsRespectDependencies(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 5 + rng.Intn(60)
		g := randomDAG(rng, n)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		e := sim.New(int64(trial))
		m := simfalkon.New(e, simfalkon.NoSecurity())
		m.KeepRecords = true
		for i := 0; i < 4; i++ {
			m.AddExecutor(0, nil)
		}
		var rep Report
		done := false
		if err := Run(g, &FalkonProvider{Model: m, Bundle: 8}, func(r Report) { rep = r; done = true }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e.Run()
		if !done {
			t.Fatalf("trial %d: workflow incomplete (%d/%d)", trial, m.Completed(), n)
		}
		if rep.Nodes != n {
			t.Fatalf("trial %d: nodes = %d", trial, rep.Nodes)
		}

		// Map node id -> (dispatched, finished) from the model records.
		type span struct{ disp, fin time.Duration }
		times := make(map[string]span, n)
		for _, r := range m.Records {
			nd, ok := r.Tag.(nodeDone)
			if !ok {
				t.Fatalf("trial %d: record without node tag", trial)
			}
			if _, dup := times[nd.n.ID]; dup {
				t.Fatalf("trial %d: node %s ran twice", trial, nd.n.ID)
			}
			times[nd.n.ID] = span{disp: r.Dispatched, fin: r.Finished}
		}
		if len(times) != n {
			t.Fatalf("trial %d: ran %d of %d nodes", trial, len(times), n)
		}
		for _, id := range g.order {
			node := g.Node(id)
			for _, dep := range node.Deps {
				if times[id].disp < times[dep].fin {
					t.Fatalf("trial %d: %s dispatched at %v before dep %s finished at %v",
						trial, id, times[id].disp, dep, times[dep].fin)
				}
			}
		}
		// Makespan is at least the critical path.
		cp, _ := g.CriticalPath()
		if rep.Makespan < cp {
			t.Fatalf("trial %d: makespan %v below critical path %v", trial, rep.Makespan, cp)
		}
	}
}

// TestRandomDAGsWithFailures: with injected failures and no retries, the
// engine still terminates, and completed + failed + skipped covers every
// node exactly once.
func TestRandomDAGsWithFailures(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 5 + rng.Intn(40)
		g := randomDAG(rng, n)

		e := sim.New(int64(trial))
		p := simfalkon.NoSecurity()
		p.FailureProb = 0.3
		p.MaxRetries = 1
		m := simfalkon.New(e, p)
		for i := 0; i < 4; i++ {
			m.AddExecutor(0, nil)
		}
		var rep Report
		done := false
		if err := Run(g, &FalkonProvider{Model: m, Bundle: 8}, func(r Report) { rep = r; done = true }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e.Run()
		if !done {
			t.Fatalf("trial %d: engine never terminated under failures", trial)
		}
		ran := rep.Nodes - len(rep.Skipped)
		if ran < len(rep.Failed) {
			t.Fatalf("trial %d: accounting broken: nodes=%d skipped=%d failed=%d",
				trial, rep.Nodes, len(rep.Skipped), len(rep.Failed))
		}
		// No skipped node may have all dependencies successful.
		failedSet := map[string]bool{}
		for _, id := range rep.Failed {
			failedSet[id] = true
		}
		skippedSet := map[string]bool{}
		for _, id := range rep.Skipped {
			skippedSet[id] = true
		}
		for _, id := range rep.Skipped {
			poisonedDep := false
			for _, dep := range g.Node(id).Deps {
				if failedSet[dep] || skippedSet[dep] {
					poisonedDep = true
					break
				}
			}
			if !poisonedDep {
				t.Fatalf("trial %d: %s skipped without a failed/skipped dependency", trial, id)
			}
		}
	}
}
