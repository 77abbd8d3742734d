package core

import (
	"fmt"
	"sync"
	"time"

	"falkon/internal/executor"
)

// LocalAllocator satisfies provision.Allocator by starting in-process
// executors against a live dispatcher. It stands in for the paper's GRAM4+PBS
// allocation pathway in the live runtime, with a configurable startup delay
// modelling LRM queue wait plus executor bootstrap (the paper observed
// 5–65 s; tests use milliseconds).
type LocalAllocator struct {
	// Template supplies executor options; ID, IdleTimeout and Allocation
	// are overwritten per executor.
	Template executor.Options
	// StartupDelay is the simulated allocation latency before each executor
	// registers.
	StartupDelay time.Duration

	mu      sync.Mutex
	nextID  int
	allocs  map[string]*localAlloc
	alive   int
	pending int
}

type localAlloc struct {
	cancel chan struct{} // closed by Deallocate
	wg     sync.WaitGroup
}

// Allocate starts n executors asynchronously.
func (l *LocalAllocator) Allocate(n int, idleTimeout time.Duration) (string, error) {
	if n <= 0 {
		return "", fmt.Errorf("core: allocation size %d", n)
	}
	l.mu.Lock()
	if l.allocs == nil {
		l.allocs = make(map[string]*localAlloc)
	}
	l.nextID++
	id := fmt.Sprintf("alloc-%d", l.nextID)
	a := &localAlloc{cancel: make(chan struct{})}
	l.allocs[id] = a
	l.pending += n
	l.mu.Unlock()

	for i := 0; i < n; i++ {
		a.wg.Add(1)
		go func(i int) {
			defer a.wg.Done()
			if l.StartupDelay > 0 {
				select {
				case <-time.After(l.StartupDelay):
				case <-a.cancel:
					l.mu.Lock()
					l.pending--
					l.mu.Unlock()
					return
				}
			}
			opts := l.Template
			opts.ID = fmt.Sprintf("%s-exec-%d", id, i)
			opts.IdleTimeout = idleTimeout
			opts.Allocation = id
			ex, err := executor.Start(opts)
			l.mu.Lock()
			l.pending--
			if err != nil {
				l.mu.Unlock()
				return
			}
			l.alive++
			l.mu.Unlock()
			// Each executor is stopped by the goroutine that started it, so
			// one still inside Start when Deallocate ran is stopped too: it
			// finds cancel closed when Start returns.
			select {
			case <-ex.Done(): // idle self-release or dispatcher gone
			case <-a.cancel:
				ex.Stop()
			}
			l.mu.Lock()
			l.alive--
			l.mu.Unlock()
		}(i)
	}
	return id, nil
}

// Deallocate stops every executor in the allocation, started or starting,
// and returns once they are gone.
func (l *LocalAllocator) Deallocate(id string) error {
	l.mu.Lock()
	a, ok := l.allocs[id]
	if ok {
		delete(l.allocs, id)
	}
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown allocation %q", id)
	}
	close(a.cancel)
	a.wg.Wait()
	return nil
}

// Counts reports alive and starting executors.
func (l *LocalAllocator) Counts() (alive, pending int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alive, l.pending
}
