// Benchmarks for the construction pipeline: sequential insert loop vs
// the two-pass counting parallel build (Options.BuildThreads), and the
// decomposed-table build that turns an index into its 2-layer+ variant.
//
// On a single-core host the parallel variants measure pipeline overhead,
// not speedup; run on a multi-core machine to see the scaling (the
// two-pass build targets near-linear scaling up to the memory bandwidth
// limit); the ncpu variant uses BuildThreads=0, i.e. GOMAXPROCS.
package twolayer_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Build-benchmark scale: the acceptance target of the parallel pipeline
// is a >= 1M-object dataset on the paper's finest grid.
const (
	buildBenchCard = 1_000_000
	buildBenchGrid = 1024
)

var (
	buildBenchOnce  sync.Once
	buildBenchRoads *spatial.Dataset
)

func buildBenchData() *spatial.Dataset {
	buildBenchOnce.Do(func() {
		buildBenchRoads = datagen.RealLikeDataset(datagen.Roads, buildBenchCard, benchSeed)
	})
	return buildBenchRoads
}

// buildThreadVariants are the sub-benchmark axis shared by the build
// benchmarks: the sequential path, fixed worker counts, and the default.
var buildThreadVariants = []struct {
	name    string
	threads int
}{
	{"seq", 1},
	{"par2", 2},
	{"par4", 4},
	{"ncpu", 0},
}

// BenchmarkBuild: full index construction (no decomposed tables) of 1M
// ROADS-like objects, sequential vs parallel two-pass build.
func BenchmarkBuild(b *testing.B) {
	d := buildBenchData()
	b.Logf("GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, v := range buildThreadVariants {
		b.Run("roads-1M/"+v.name, func(b *testing.B) {
			opts := core.Options{NX: buildBenchGrid, NY: buildBenchGrid,
				Space: d.MBR(), BuildThreads: v.threads}
			b.ReportAllocs()
			runtime.GC() // don't charge dataset-generation garbage to the first variant
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = core.Build(d, opts).Len()
			}
		})
	}
}

// BenchmarkBuildDecomposed: the decomposed-table build alone — the base
// index is constructed outside the timer, so the measurement isolates
// the per-tile sort work that BuildDecomposed fans across workers.
func BenchmarkBuildDecomposed(b *testing.B) {
	d := buildBenchData()
	for _, v := range buildThreadVariants {
		b.Run("roads-1M/"+v.name, func(b *testing.B) {
			opts := core.Options{NX: buildBenchGrid, NY: buildBenchGrid,
				Space: d.MBR(), BuildThreads: v.threads}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := core.Build(d, opts)
				runtime.GC() // don't charge the base build's garbage to the timed phase
				b.StartTimer()
				ix.BuildDecomposed()
				benchSink = ix.Len()
			}
		})
	}
}
