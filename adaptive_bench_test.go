// Benchmarks for the adaptive query kernels: the O(tiles) count
// pushdown against the streamed reference it replaced, the sequential
// scan on large windows, and the early-stopping existence probe.
package twolayer_test

import (
	"fmt"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// BenchmarkWindowCountFast: count-only window queries on the Table-5
// ROADS workload. "streamed" is the pre-pushdown reference (walk every
// matching entry through a callback on the sequential scan, 0
// allocs/op at every area); "pushdown" is WindowCount's kernel,
// which answers interior tiles with len() and 1-comparison decomposed
// classes with a binary-search run length. The streamed/pushdown ratio
// is the kernel's speedup at each query size.
func BenchmarkWindowCountFast(b *testing.B) {
	benchData()
	for _, area := range []float64{0.001, 0.01, 0.04, 0.25} {
		queries := datagen.Windows(benchRoads, datagen.QuerySpec{
			N: benchQueries, RelExtent: area, Seed: benchSeed + 2})
		run := func(b *testing.B, count func(geom.Rect) int) {
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				total += count(queries[i%len(queries)])
			}
			benchSink = total
		}
		plain := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
		dec := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid, Decompose: true})
		b.Run("streamed/area="+ftoa2(area), func(b *testing.B) {
			run(b, func(w geom.Rect) int {
				n := 0
				plain.Window(w, func(spatial.Entry) { n++ })
				return n
			})
		})
		b.Run("pushdown/area="+ftoa2(area), func(b *testing.B) {
			run(b, plain.WindowCount)
		})
		b.Run("pushdown-decomposed/area="+ftoa2(area), func(b *testing.B) {
			run(b, dec.WindowCount)
		})
	}
}

func ftoa2(f float64) string {
	switch f {
	case 0.001:
		return "0.1%"
	case 0.01:
		return "1%"
	case 0.04:
		return "4%"
	case 0.25:
		return "25%"
	}
	return ftoa(f)
}

// BenchmarkWindowLarge: one large window per op through Window, the
// one sequential tile scan, at the extents where covers reach thousands
// of tiles. Expect 0 allocs/op.
func BenchmarkWindowLarge(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	for _, extent := range []float64{0.1, 0.25, 0.5} {
		queries := datagen.Windows(benchRoads, datagen.QuerySpec{
			N: 64, RelExtent: extent, Seed: benchSeed + 9})
		b.Run(fmt.Sprintf("extent=%g", extent), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				n := 0
				ix.Window(queries[i%len(queries)], func(spatial.Entry) { n++ })
				total += n
			}
			benchSink = total
		})
	}
}

// BenchmarkIntersects: the early-stopping existence probe (a Search with
// Limit 1) on the Table-5 workload. The probe stops at the first match,
// so it should stay near-constant per op. The window points into the
// query set: Search keeps its Query (through the Region case), so a
// window copied to the stack would cost one allocation per op.
func BenchmarkIntersects(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		q := core.Query{Window: &benchWindows[i%len(benchWindows)], Limit: 1}
		if complete, _ := ix.Search(q, func(spatial.Entry) bool { return true }); !complete {
			hits++
		}
	}
	benchSink = hits
}
