package workflow

import (
	"sync"
	"time"

	"falkon/internal/core"
	"falkon/internal/task"
)

// taskOfDur builds a bare synthetic task for provider submission.
func taskOfDur(d time.Duration) task.Task {
	return task.Task{Engine: task.EngineSleep, Command: "sleep", Duration: d}
}

// LiveProvider executes workflow nodes on a running in-process Falkon
// system over real TCP — what the examples use. Nodes sleep their Duration
// (scaled by the system's SleepScale).
type LiveProvider struct {
	System *core.System

	once  sync.Once
	mu    sync.Mutex
	gen   task.IDGen
	nodes map[task.ID]nodeDone
	start time.Time
	errs  []error
}

// Submit converts nodes to tasks and streams completions back.
func (p *LiveProvider) Submit(nodes []*Node, each func(n *Node, failed bool)) {
	p.once.Do(func() {
		p.start = time.Now()
		p.nodes = make(map[task.ID]nodeDone)
		go p.collect()
	})
	tasks := make([]task.Task, 0, len(nodes))
	p.mu.Lock()
	for _, n := range nodes {
		id := p.gen.Next()
		t := taskOfDur(n.Duration)
		t.ID = id
		p.nodes[id] = nodeDone{n: n, each: each}
		tasks = append(tasks, t)
	}
	p.mu.Unlock()
	if err := p.System.Submit(tasks); err != nil {
		p.mu.Lock()
		p.errs = append(p.errs, err)
		p.mu.Unlock()
	}
}

// collect routes finished results back to the engine.
func (p *LiveProvider) collect() {
	for r := range p.System.Results() {
		p.mu.Lock()
		nd, ok := p.nodes[r.ID]
		delete(p.nodes, r.ID)
		p.mu.Unlock()
		if ok {
			nd.each(nd.n, r.Failed())
		}
	}
}

// Now returns wall time since the first submission.
func (p *LiveProvider) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		return 0
	}
	return time.Since(p.start)
}

// Errs returns submission errors observed so far.
func (p *LiveProvider) Errs() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]error(nil), p.errs...)
}
