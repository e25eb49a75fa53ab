package twolayer_test

import (
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// BenchmarkWindowTracing prices the observability layer on the window
// query hot path over the ROADS-like benchmark workload, for the count
// pushdown (count) and the streamed scan (search) alike:
//
//   - off:   the shared index itself — the production path when neither
//     stats nor tracing is requested.
//   - stats: an instrumented view, keeping the paper's work metrics.
//   - trace: a traced view, additionally splitting wall time between
//     the filtering and refinement stages.
//
// Every query counts its work into a tally on its stack whichever case
// runs it, so the three cases run the same kernels and differ only in
// where the tally goes when the query ends: each pair of subbenchmarks
// compares like with like, and none of them allocates.
//
// Compare with: go test -bench 'WindowTracing' -count 10 | benchstat.
func BenchmarkWindowTracing(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	var stats core.Stats
	var tr core.Trace
	for _, c := range []struct {
		name string
		ix   *core.Index
	}{{"off", ix}, {"stats", ix.View(&stats)}, {"trace", ix.ViewTraced(&tr)}} {
		b.Run(c.name+"/count", func(b *testing.B) { runWindows(b, c.ix.WindowCount) })
		b.Run(c.name+"/search", func(b *testing.B) {
			runWindows(b, func(w geom.Rect) int {
				n := 0
				c.ix.Search(core.Query{Window: &w}, func(spatial.Entry) bool { n++; return true })
				return n
			})
		})
	}
}
