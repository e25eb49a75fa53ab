package twolayer_test

import (
	"testing"

	"github.com/twolayer/twolayer/internal/core"
)

// BenchmarkWindowTracing prices the observability layer on the window
// query hot path over the ROADS-like benchmark workload:
//
//   - off:   the shared index itself — the production path when neither stats
//     nor tracing is requested. Its only observability cost is the nil
//     checks the Stats instrumentation has always performed, so it must
//     stay within noise (<2%, the acceptance bar) of the pre-tracing
//     baseline measured by BenchmarkTable5Window/2-layer/ROADS.
//   - stats: an instrumented view counting the paper's work metrics.
//   - trace: a traced view, additionally splitting wall time between
//     the filtering and refinement stages.
//
// Compare with: go test -bench 'WindowTracing' -count 10 | benchstat.
func BenchmarkWindowTracing(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})

	b.Run("off", func(b *testing.B) { runWindows(b, ix.WindowCount) })
	b.Run("stats", func(b *testing.B) {
		var s core.Stats
		view := ix.View(&s)
		runWindows(b, view.WindowCount)
	})
	b.Run("trace", func(b *testing.B) {
		var tr core.Trace
		view := ix.ViewTraced(&tr)
		runWindows(b, view.WindowCount)
	})
}
