package bench

import (
	"fmt"

	"falkon/internal/cluster"
)

func init() {
	register("table1", "Table 1", table1)
}

// table1 prints the testbed platforms (Table 1) as modeled by
// internal/cluster — the node inventory every simulated experiment draws
// from.
func table1(_ float64) *Result {
	res := &Result{
		ID:     "table1",
		Title:  "Platform descriptions (testbed model)",
		Header: []string{"name", "# of nodes", "processors", "memory", "network", "executors (1/CPU)"},
	}
	for _, p := range cluster.All() {
		res.Rows = append(res.Rows, []string{
			p.Name, fmt.Sprint(p.Nodes), p.Processors,
			fmt.Sprintf("%dGB", p.MemoryGB), fmt.Sprintf("%d Mb/s", p.NetworkMbps),
			fmt.Sprint(p.Executors()),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("of the %d TG_ANL nodes, %d were free during the paper's experiments", cluster.TGANLIA32.Nodes+cluster.TGANLIA64.Nodes, cluster.FreeANLNodes))
	return res
}
