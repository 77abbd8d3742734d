// Package forward is what the repo benchmark builds a tree's root with. A
// root is a dispatch.Dispatcher whose Options name its leaves (DESIGN.md §13);
// this package only spells that the way the benchmark, which may not change
// with the code it measures, compiles against.
package forward

import (
	"fmt"

	"falkon/internal/dispatch"
)

// Forwarder is a dispatcher with leaves.
type Forwarder = dispatch.Dispatcher

// Options names a root's leaves and its root→leaf bundle size
// (dispatch.Options.Leaves and Bundle).
type Options struct {
	Dispatchers []string
	Bundle      int
}

// New returns an unstarted root over opts.Dispatchers: Listen dials them.
func New(opts Options) (*Forwarder, error) {
	if len(opts.Dispatchers) == 0 {
		return nil, fmt.Errorf("forward: no dispatchers configured")
	}
	return dispatch.New(dispatch.Options{Leaves: opts.Dispatchers, Bundle: opts.Bundle}), nil
}
