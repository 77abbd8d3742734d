package main

import (
	"fmt"
	"log"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"falkon/internal/fproto"
)

// bootTree boots a live dispatch tree: a root (falkon-dispatcher -leaves),
// c.tree journaled leaf dispatchers, and executors striped across the leaves.
// With -tree-depth ≥ 3 the root forwards to intermediate layers of roots
// (roots of roots) instead of reaching the leaves directly, each layer halving
// the fan-in. Unlike the flat run, the scheduled SIGKILLs target the LEAVES
// (rotating), which exercises the tree's whole failure story at once: the
// tier above requeues the dead leaf's owed work for live siblings, the
// restarted leaf replays its journal and re-runs whatever it already
// owned, and the roots above drop the duplicate results — so
// the client must still see exactly-once delivery no matter how many
// levels the results bubble up through.
func bootTree(r *run) (topology, error) {
	leafAddrs := make([]string, r.tree)
	for i := range leafAddrs {
		var err error
		if leafAddrs[i], err = freeAddr(); err != nil {
			return topology{}, err
		}
	}
	rootAddr, err := freeAddr()
	if err != nil {
		return topology{}, err
	}

	killAts := killSchedule(r.cfg)
	targets := make([]string, len(killAts))
	for i, at := range killAts {
		targets[i] = fmt.Sprintf("leaf-%d@%v", i%r.tree, at)
	}
	log.Printf("seed %d tree schedule: depth=%d root=%s leaves=%v kills=%v", r.seed, r.treeDepth, rootAddr, leafAddrs, targets)

	// Leaves: journaled dispatchers under supervision, each with its own
	// derived fault spec — the same disk/latency fault family the flat run
	// injects, seeded per leaf.
	leaves := make([]*super, r.tree)
	for i := range leaves {
		leaves[i] = r.startDispatcher(fmt.Sprintf("leaf-%d", i), leafAddrs[i], 1000+500*uint64(i))
	}
	if err := allListening(leaves...); err != nil {
		return topology{}, err
	}

	// Intermediate layers (depth ≥ 3): each layer halves the fan-in, striping
	// the layer below across its roots. Mids are never kill targets — leaf
	// death is the failure under test — but every redistribution and dedup
	// now happens once per level. treeRows counts every root→child edge in
	// the topology: the flattened LeafStats rows the root reports once the
	// whole tree is connected and healthy.
	treeRows := 0
	childAddrs := leafAddrs
	for level := 0; level < r.treeDepth-2; level++ {
		treeRows += len(childAddrs)
		nMid := (len(childAddrs) + 1) / 2
		mids, midAddrs := make([]*super, nMid), make([]string, nMid)
		for j := range mids {
			if midAddrs[j], err = freeAddr(); err != nil {
				return topology{}, err
			}
			var kids []string
			for k := j; k < len(childAddrs); k += nMid {
				kids = append(kids, childAddrs[k])
			}
			mids[j] = r.startRoot(fmt.Sprintf("mid-%d-%d", level, j), midAddrs[j], kids)
		}
		if err := allListening(mids...); err != nil {
			return topology{}, err
		}
		childAddrs = midAddrs
	}
	treeRows += len(childAddrs)

	// The root. Never a kill target — the harness exercises leaf death; the
	// supervisor only matters if the root exits on its own.
	root := r.startRoot("root", rootAddr, childAddrs)
	if err := allListening(root); err != nil {
		return topology{}, err
	}

	return topology{
		what:    fmt.Sprintf(" (tree %d leaves, depth %d)", r.tree, r.treeDepth),
		front:   rootAddr,
		execAt:  func(i int) string { return leafAddrs[i%r.tree] },
		victims: leaves,
		rows:    treeRows,
		kills:   r.scheduledKills(killAts, leaves),
		atRest:  r.killAtRest(leaves[0]),
		check: func(st fproto.StatsReply) error {
			if st.Depth != r.treeDepth {
				return fmt.Errorf("root reports tree depth %d, want %d", st.Depth, r.treeDepth)
			}
			return nil
		},
	}, nil
}

// startRoot supervises a node with leaves: the dispatcher binary again, its
// executors links to kids. A small bundle keeps several bundles in flight
// even on the quick workload, so a kill usually lands while the dead leaf
// still owes work.
func (r *run) startRoot(name, addr string, kids []string) *super {
	return r.start(name, addr, func(int) *exec.Cmd {
		return exec.Command(filepath.Join(r.binDir, "falkon-dispatcher"),
			"-addr", addr,
			"-leaves", strings.Join(kids, ","),
			"-bundle", "8",
			"-stats-every", "0",
		)
	})
}

// allListening waits until each node accepts connections at its address.
func allListening(nodes ...*super) error {
	for _, n := range nodes {
		if err := waitListening(n.addr, 10*time.Second); err != nil {
			return fmt.Errorf("%s never listened: %w", n.name, err)
		}
	}
	return nil
}
