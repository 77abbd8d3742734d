package task

// ResultBuffer holds finished results awaiting Collect, plus the blocked
// Collect calls to wake when one arrives — the per-instance table a
// dispatcher and a tree root both keep. It has no lock of its own: it lives
// under its instance's mutex.
type ResultBuffer struct {
	Results []Result
	waiters []chan struct{}
}

// Add buffers r and wakes every blocked Collect.
func (b *ResultBuffer) Add(r Result) {
	b.Results = append(b.Results, r)
	for _, w := range b.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	b.waiters = b.waiters[:0]
}

// Take removes and returns up to max buffered results (0 = all).
func (b *ResultBuffer) Take(max int) []Result {
	n := len(b.Results)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]Result, n)
	copy(out, b.Results)
	rest := copy(b.Results, b.Results[n:])
	clear(b.Results[rest:]) // the backing array must not pin delivered results
	b.Results = b.Results[:rest]
	return out
}

// Wait registers a blocked Collect and returns the channel the next Add
// signals.
func (b *ResultBuffer) Wait() <-chan struct{} {
	w := make(chan struct{}, 1)
	b.waiters = append(b.waiters, w)
	return w
}
