// Command falkon-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	falkon-bench -experiment fig3            # one experiment
//	falkon-bench -experiment fig8 -scale 0.1 # scaled-down endurance run
//	falkon-bench -all                        # everything
//	falkon-bench -list                       # available ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"falkon/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "comma-separated experiment ids (fig3, table2, ...)")
		scale      = flag.Float64("scale", 1.0, "experiment scale in (0, 1]: fractions shrink task counts")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		plot       = flag.Bool("plot", false, "render ASCII charts for figure experiments")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := bench.IDs()
	if !*all {
		if *experiment == "" {
			fmt.Fprintln(os.Stderr, "falkon-bench: pass -experiment <ids>, -all, or -list")
			os.Exit(2)
		}
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		res, err := bench.Run(strings.TrimSpace(id), *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "falkon-bench:", err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		if *plot {
			fmt.Print(res.RenderPlots())
		}
	}
}
