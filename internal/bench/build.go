package bench

import (
	"runtime"
	"time"

	"github.com/twolayer/twolayer/internal/core"
)

// BuildExp measures index construction: the sequential insert loop
// against the two-pass parallel pipeline (core.Options.BuildThreads),
// with and without decomposed tables, on every emulated real dataset.
// This is not a paper experiment — the paper builds its indices once,
// offline — but it documents the cost the serving layer pays on every
// start-up build and recovery rebuild.
func BuildExp(cfg Config) {
	cfg = cfg.withDefaults()
	par := cfg.BuildThreads
	if par <= 0 {
		par = core.DefaultThreads()
	}
	if par < 2 {
		// The parallel column must actually run the two-pass pipeline,
		// even on a single-core host (where it still wins on allocations).
		par = 2
	}
	cfg.printf("\n== Build: sequential vs parallel pipeline (NumCPU=%d) ==\n", runtime.NumCPU())
	cfg.printf("%-8s %10s %6s | %12s %12s %8s | %12s %12s\n",
		"dataset", "objects", "grid", "seq build", "par build", "speedup", "seq +dec", "par +dec")
	for _, kind := range realKinds() {
		d := cfg.realDataset(kind)
		g := core.SuggestGridSize(d.Len())
		base := core.Options{NX: g, NY: g, Space: d.MBR()}

		timeBuild := func(threads int, decompose bool) time.Duration {
			runtime.GC() // don't charge one variant with another's garbage
			opts := base
			opts.BuildThreads = threads
			opts.Decompose = decompose
			start := time.Now()
			ix := core.Build(d, opts)
			elapsed := time.Since(start)
			_ = ix.Len()
			return elapsed
		}
		seq := timeBuild(1, false)
		parT := timeBuild(par, false)
		seqDec := timeBuild(1, true)
		parDec := timeBuild(par, true)
		cfg.printf("%-8s %10d %6d | %12v %12v %7.2fx | %12v %12v\n",
			kind.String(), d.Len(), g,
			seq.Round(time.Millisecond), parT.Round(time.Millisecond),
			float64(seq)/float64(parT),
			seqDec.Round(time.Millisecond), parDec.Round(time.Millisecond))
	}
	cfg.printf("(parallel columns use BuildThreads=%d; on a single-core host the\n", par)
	cfg.printf(" speedup reflects the allocation-lean two-pass layout, not parallelism)\n")
}
