// Command experiments regenerates the tables and figures of the paper's
// evaluation section on scaled-down workloads.
//
// Usage:
//
//	experiments -exp table5            # one experiment
//	experiments -exp all -scale 0.5    # everything, at half the default scale
//
// Experiment ids: table3 table4 table5 table6 fig6 fig7 fig8 fig9 fig10
// fig11 fig12, or all. Scale 1.0 corresponds to 1/20 of the paper's
// cardinalities (ROADS 1M, EDGES 3.5M, TIGER 4.9M objects).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/twolayer/twolayer/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table3..table6, fig6..fig12, ext, build, all)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	budget := flag.Duration("budget", 5*time.Second, "time budget per measurement point")
	seed := flag.Int64("seed", 0, "workload seed (0 = default)")
	buildThreads := flag.Int("build-threads", 0, "worker count for the build experiment's parallel column (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := bench.Config{
		Out:          os.Stdout,
		Scale:        *scale,
		TimePerPoint: *budget,
		Seed:         *seed,
		BuildThreads: *buildThreads,
	}
	start := time.Now()
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}
