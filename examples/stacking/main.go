// Stacking: the AstroPortal sky-survey stacking service — the challenge
// problem that inspired Falkon (paper acknowledgments) — on a live system
// with the §6 data-aware extension. Many small tasks each read one image
// from a modest set. Run twice: once with tasks that do not say which image
// they read, so dispatch is next-available and every read re-stages from
// the shared file system, and once with tasks that name it, so repeat reads
// go to the executor already caching the image. No option differs between
// the two runs; only the tasks do.
package main

import (
	"fmt"
	"log"
	"time"

	"falkon"
	"falkon/internal/data"
)

const (
	nExecutors = 8
	nImages    = 64
	nReads     = 6 // stack operations per image
	scale      = 0.02
)

func main() {
	fmt.Printf("stacking service: %d reads over %d images on %d executors\n",
		nImages*nReads, nImages, nExecutors)
	naive, _ := run(false)
	aware, hits := run(true)
	fmt.Printf("\n%-28s %v\n", "next-available (paper §3.1):", naive.Round(time.Millisecond))
	fmt.Printf("%-28s %v  (%.0f%% cache hits)\n", "data-aware (paper §6):", aware.Round(time.Millisecond), hits*100)
	fmt.Printf("speedup: %.1fx — the benefit the paper predicts for 'applications that\n", float64(naive)/float64(aware))
	fmt.Println("exhibit locality in their data access patterns' (§6)")
}

// run stacks every image nReads times and returns the elapsed time and the
// dispatcher's cache hit rate; named says whether each task names the image
// it reads.
func run(named bool) (time.Duration, float64) {
	throttle := data.NewThrottle(scale) // real shared-bandwidth contention
	sys, err := falkon.Start(falkon.Config{Executors: nExecutors, BundleSize: 32, DataCost: throttle.Cost})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	var gen falkon.IDGen
	var tasks []falkon.Task
	for r := 0; r < nReads; r++ {
		for i := 0; i < nImages; i++ {
			io := &falkon.IOSpec{
				ReadBytes: 8 << 20, // one 8 MB image cutout
				Location:  "shared",
			}
			if named {
				io.Dataset = fmt.Sprintf("img-%03d", i)
			}
			tasks = append(tasks, falkon.Task{ID: gen.Next(), Engine: falkon.EngineData, IO: io})
		}
	}
	start := time.Now()
	if err := sys.Submit(tasks); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.WaitN(len(tasks), 5*time.Minute); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	st := sys.Stats()
	hitRate := 0.0
	if tot := st.CacheHits + st.CacheMisses; tot > 0 {
		hitRate = float64(st.CacheHits) / float64(tot)
	}
	return elapsed, hitRate
}
