// Package workflow is a Swift/Karajan-style data-driven task-graph engine:
// applications are DAGs of tasks whose edges are data dependencies, and an
// execution provider (Falkon, GRAM4+LRM direct, or GRAM4 with clustering)
// runs each wave of ready tasks. This reproduces the integration layer of
// the paper's §5 — Swift applications run unmodified over Falkon via a
// provider — sufficient to drive the fMRI and Montage experiments on
// either the live runtime or the virtual-time models.
package workflow

import (
	"fmt"
	"time"
)

// Node is one task in the graph.
type Node struct {
	ID       string
	Stage    string        // human label for per-stage reporting ("mProject")
	Duration time.Duration // synthetic runtime
	Deps     []string      // ids this node waits for
}

// Graph is a DAG of nodes.
type Graph struct {
	Name  string
	nodes map[string]*Node
	order []string // insertion order, for deterministic iteration
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, nodes: make(map[string]*Node)}
}

// Add inserts a node; duplicate ids are an error.
func (g *Graph) Add(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("workflow: node must have an id")
	}
	if _, dup := g.nodes[n.ID]; dup {
		return fmt.Errorf("workflow: duplicate node %q", n.ID)
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	return nil
}

// MustAdd is Add that panics, for graph builders.
func (g *Graph) MustAdd(n *Node) {
	if err := g.Add(n); err != nil {
		panic(err)
	}
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns a node by id (nil if absent).
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Levels partitions the DAG into topological levels: level k holds nodes
// whose longest dependency chain has length k. It errors on missing
// dependencies or cycles. Nodes within a level are ordered by insertion.
func (g *Graph) Levels() ([][]*Node, error) {
	// Verify deps exist.
	for _, id := range g.order {
		for _, d := range g.nodes[id].Deps {
			if _, ok := g.nodes[d]; !ok {
				return nil, fmt.Errorf("workflow: node %q depends on missing %q", id, d)
			}
		}
	}
	depth := make(map[string]int, len(g.nodes))
	state := make(map[string]int8, len(g.nodes)) // 0 unvisited, 1 visiting, 2 done
	var visit func(id string) (int, error)
	visit = func(id string) (int, error) {
		switch state[id] {
		case 1:
			return 0, fmt.Errorf("workflow: cycle through %q", id)
		case 2:
			return depth[id], nil
		}
		state[id] = 1
		d := 0
		for _, dep := range g.nodes[id].Deps {
			dd, err := visit(dep)
			if err != nil {
				return 0, err
			}
			if dd+1 > d {
				d = dd + 1
			}
		}
		state[id] = 2
		depth[id] = d
		return d, nil
	}
	max := 0
	for _, id := range g.order {
		d, err := visit(id)
		if err != nil {
			return nil, err
		}
		if d > max {
			max = d
		}
	}
	levels := make([][]*Node, max+1)
	for _, id := range g.order {
		d := depth[id]
		levels[d] = append(levels[d], g.nodes[id])
	}
	return levels, nil
}

// Validate checks the graph is a well-formed DAG.
func (g *Graph) Validate() error {
	_, err := g.Levels()
	return err
}

// StageNames lists distinct stage labels in first-appearance order.
func (g *Graph) StageNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, id := range g.order {
		s := g.nodes[id].Stage
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// CriticalPath returns the longest duration-weighted dependency chain —
// the graph's theoretical minimum makespan with unlimited processors.
func (g *Graph) CriticalPath() (time.Duration, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	memo := make(map[string]time.Duration, len(g.nodes))
	var longest func(id string) time.Duration
	longest = func(id string) time.Duration {
		if d, ok := memo[id]; ok {
			return d
		}
		n := g.nodes[id]
		var best time.Duration
		for _, dep := range n.Deps {
			if d := longest(dep); d > best {
				best = d
			}
		}
		memo[id] = best + n.Duration
		return memo[id]
	}
	var max time.Duration
	for _, id := range g.order {
		if d := longest(id); d > max {
			max = d
		}
	}
	return max, nil
}

// Cluster groups nodes into at most k clusters, preserving order — the
// paper's task-clustering transformation (tasks in a cluster run serially
// as one submission).
func Cluster(nodes []*Node, k int) [][]*Node {
	if k <= 0 {
		k = 1
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	if k == 0 {
		return nil
	}
	out := make([][]*Node, k)
	per := len(nodes) / k
	rem := len(nodes) % k
	i := 0
	for c := 0; c < k; c++ {
		n := per
		if c < rem {
			n++
		}
		out[c] = nodes[i : i+n]
		i += n
	}
	return out
}
