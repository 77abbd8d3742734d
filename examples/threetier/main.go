// Threetier: the paper's §6 Figure 16 architecture, live in one process —
// two dispatchers each managing their own executors (as they would on
// cluster manager nodes straddling public/private networks), a root in front
// — a dispatcher whose executors are links to them — and the unmodified
// client library talking to the root.
package main

import (
	"fmt"
	"log"
	"time"

	"falkon"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
)

func main() {
	// Tier 3: two dispatchers, each with its own executor pool.
	var dispAddrs []string
	for i := 0; i < 2; i++ {
		d := dispatch.New(dispatch.Options{})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		for j := 0; j < 4; j++ {
			ex, err := executor.Start(executor.Options{
				ID:             fmt.Sprintf("site%d-exec%d", i, j),
				DispatcherAddr: d.Addr(),
			})
			if err != nil {
				log.Fatal(err)
			}
			defer ex.Stop()
		}
		dispAddrs = append(dispAddrs, d.Addr())
		fmt.Printf("site %d: dispatcher %s with 4 executors\n", i, d.Addr())
	}

	// Tier 2: the root in "public IP space".
	fwd := dispatch.New(dispatch.Options{Leaves: dispAddrs})
	if err := fwd.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer fwd.Close()
	fmt.Printf("root: %s relaying to %d sites\n\n", fwd.Addr(), len(dispAddrs))

	// Tier 1: four ordinary clients; their instances spread round-robin
	// across the sites.
	const perClient = 500
	start := time.Now()
	results := make(chan int, 4)
	for c := 0; c < 4; c++ {
		c := c
		go func() {
			cli, err := falkon.NewClient(falkon.ClientOptions{
				DispatcherAddr: fwd.Addr(),
				Name:           fmt.Sprintf("client-%d", c),
				BundleSize:     50,
			})
			if err != nil {
				log.Fatal(err)
			}
			defer cli.Close()
			var gen falkon.IDGen
			if err := cli.Submit(falkon.SleepBatch(&gen, perClient, 0)); err != nil {
				log.Fatal(err)
			}
			rs, err := cli.WaitN(perClient, time.Minute)
			if err != nil {
				log.Fatal(err)
			}
			results <- len(rs)
		}()
	}
	total := 0
	for c := 0; c < 4; c++ {
		total += <-results
	}
	elapsed := time.Since(start)
	fmt.Printf("4 clients completed %d tasks through the forwarder in %v (%.0f tasks/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Println("(paper §6: the 3-tier architecture supports cross-firewall communication and")
	fmt.Println(" executors in private IP space, and is the route to BlueGene/P-scale machines)")
}
