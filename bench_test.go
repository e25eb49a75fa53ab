// Benchmarks regenerating the paper's evaluation, one per table and
// figure, at a fixed small scale so `go test -bench=.` terminates in
// minutes. The cmd/experiments binary runs the same experiments at full
// (scaled) size with paper-style result tables; EXPERIMENTS.md records
// the paper-vs-measured comparison.
package twolayer_test

import (
	"io"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/block"
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/distsim"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/onelayer"
	"github.com/twolayer/twolayer/internal/quadtree"
	"github.com/twolayer/twolayer/internal/rtree"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Benchmark scale: objects per dataset and queries per workload.
const (
	benchCard    = 200_000
	benchQueries = 2_000
	benchGrid    = 512
	benchSeed    = 20210419
)

var (
	benchOnce    sync.Once
	benchRoads   *spatial.Dataset
	benchEdges   *spatial.Dataset
	benchWindows []geom.Rect // 0.1% relative extent over ROADS
	benchDisks   []geom.Disk
	benchSink    int
)

func benchData() {
	benchOnce.Do(func() {
		benchRoads = datagen.RealLikeDataset(datagen.Roads, benchCard, benchSeed)
		benchEdges = datagen.RealLikeDataset(datagen.Edges, benchCard, benchSeed+1)
		benchWindows = datagen.Windows(benchRoads, datagen.QuerySpec{
			N: benchQueries, RelExtent: 0.001, Seed: benchSeed + 2})
		benchDisks = datagen.Disks(benchRoads, datagen.QuerySpec{
			N: benchQueries, RelExtent: 0.001, Seed: benchSeed + 3})
	})
}

// runWindows measures per-query window cost over the shared workload.
func runWindows(b *testing.B, count func(geom.Rect) int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += count(benchWindows[i%len(benchWindows)])
	}
	benchSink = total
}

func runDisks(b *testing.B, count func(geom.Point, float64) int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		q := benchDisks[i%len(benchDisks)]
		total += count(q.Center, q.Radius)
	}
	benchSink = total
}

// BenchmarkTable3DatasetStats measures workload generation itself
// (objects/op), backing the Table III emulation.
func BenchmarkTable3DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := datagen.RealLikeDataset(datagen.Roads, 10_000, int64(i))
		benchSink = datagen.Stats(d).Cardinality
	}
}

// BenchmarkTable5Window: window query cost per method (Table V's
// throughput comparison; ns/op is the inverse of throughput).
func BenchmarkTable5Window(b *testing.B) {
	benchData()
	for _, ds := range []struct {
		name string
		data *spatial.Dataset
	}{{"ROADS", benchRoads}, {"EDGES", benchEdges}} {
		d := ds.data
		b.Run("2-layer/"+ds.name, func(b *testing.B) {
			ix := core.Build(d, core.Options{NX: benchGrid, NY: benchGrid})
			runWindows(b, ix.WindowCount)
		})
		b.Run("2-layer+/"+ds.name, func(b *testing.B) {
			ix := core.Build(d, core.Options{NX: benchGrid, NY: benchGrid, Decompose: true})
			runWindows(b, ix.WindowCount)
		})
		b.Run("1-layer/"+ds.name, func(b *testing.B) {
			ix := onelayer.Build(d, onelayer.Options{NX: benchGrid, NY: benchGrid})
			runWindows(b, ix.WindowCount)
		})
		b.Run("quad-tree/"+ds.name, func(b *testing.B) {
			ix := quadtree.Build(d, quadtree.Options{})
			runWindows(b, ix.WindowCount)
		})
		b.Run("quad-2layer/"+ds.name, func(b *testing.B) {
			ix := quadtree.Build(d, quadtree.Options{Mode: quadtree.TwoLayer})
			runWindows(b, ix.WindowCount)
		})
		b.Run("R-tree/"+ds.name, func(b *testing.B) {
			ix := rtree.BulkSTR(d, rtree.Options{})
			runWindows(b, ix.WindowCount)
		})
		b.Run("Rstar-tree/"+ds.name, func(b *testing.B) {
			ix := rtree.BuildRStar(d, rtree.Options{})
			runWindows(b, ix.WindowCount)
		})
		b.Run("BLOCK/"+ds.name, func(b *testing.B) {
			ix := block.Build(d, block.Options{})
			runWindows(b, ix.WindowCount)
		})
		b.Run("MXCIF/"+ds.name, func(b *testing.B) {
			ix := quadtree.Build(d, quadtree.Options{Mode: quadtree.MXCIF})
			runWindows(b, ix.WindowCount)
		})
	}
}

// BenchmarkTable6Updates: per-insert cost after a 90% bulk load.
func BenchmarkTable6Updates(b *testing.B) {
	benchData()
	d := benchRoads
	split := d.Len() * 9 / 10
	head := &spatial.Dataset{Entries: d.Entries[:split]}
	tail := d.Entries[split:]
	space := d.MBR()

	b.Run("2-layer", func(b *testing.B) {
		ix := core.Build(head, core.Options{NX: benchGrid, NY: benchGrid, Space: space})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Insert(tail[i%len(tail)])
		}
	})
	b.Run("1-layer", func(b *testing.B) {
		ix := onelayer.Build(head, onelayer.Options{NX: benchGrid, NY: benchGrid, Space: space})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Insert(tail[i%len(tail)])
		}
	})
	b.Run("quad-tree", func(b *testing.B) {
		ix := quadtree.Build(head, quadtree.Options{Space: space})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Insert(tail[i%len(tail)])
		}
	})
	b.Run("R-tree", func(b *testing.B) {
		ix := rtree.BulkSTR(head, rtree.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Insert(tail[i%len(tail)])
		}
	})
}

// BenchmarkFig6Refinement: exact window and disk queries per refinement
// mode.
func BenchmarkFig6Refinement(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	for _, mode := range []core.RefineMode{core.RefineSimple, core.RefineAvoid, core.RefineAvoidPlus} {
		b.Run("window/"+mode.String(), func(b *testing.B) {
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				q := core.Query{Window: &benchWindows[i%len(benchWindows)], Exact: true, Mode: mode}
				c, _ := ix.SearchCount(q)
				n += c
			}
			benchSink = n
		})
	}
	for _, mode := range []core.RefineMode{core.RefineSimple, core.RefineAvoid} {
		b.Run("disk/"+mode.String(), func(b *testing.B) {
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				q := core.Query{Disk: &benchDisks[i%len(benchDisks)], Exact: true, Mode: mode}
				c, _ := ix.SearchCount(q)
				n += c
			}
			benchSink = n
		})
	}
}

// BenchmarkFig7Build: index construction cost per granularity (Figure 7's
// first row). Query throughput per granularity is covered by
// BenchmarkFig7Query.
func BenchmarkFig7Build(b *testing.B) {
	benchData()
	for _, g := range []int{256, 512, 1024} {
		b.Run(variantName("1-layer", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = onelayer.Build(benchRoads, onelayer.Options{NX: g, NY: g}).Len()
			}
		})
		b.Run(variantName("2-layer", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = core.Build(benchRoads, core.Options{NX: g, NY: g}).Len()
			}
		})
		b.Run(variantName("2-layer+", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = core.Build(benchRoads, core.Options{NX: g, NY: g, Decompose: true}).Len()
			}
		})
	}
}

func variantName(v string, g int) string {
	return v + "/grid=" + itoa(g)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig7Query: window query cost per granularity.
func BenchmarkFig7Query(b *testing.B) {
	benchData()
	for _, g := range []int{256, 512, 1024, 2048} {
		ix := core.Build(benchRoads, core.Options{NX: g, NY: g})
		b.Run(variantName("2-layer", g), func(b *testing.B) {
			runWindows(b, ix.WindowCount)
		})
	}
}

// BenchmarkFig8RealData: throughput vs query area, the five key methods
// on ROADS (windows) — Figure 8's first column.
func BenchmarkFig8RealData(b *testing.B) {
	benchData()
	d := benchRoads
	indices := map[string]interface {
		WindowCount(geom.Rect) int
	}{
		"R-tree":   rtree.BulkSTR(d, rtree.Options{}),
		"quadtree": quadtree.Build(d, quadtree.Options{}),
		"1-layer":  onelayer.Build(d, onelayer.Options{NX: benchGrid, NY: benchGrid}),
		"2-layer":  core.Build(d, core.Options{NX: benchGrid, NY: benchGrid}),
		"2-layer+": core.Build(d, core.Options{NX: benchGrid, NY: benchGrid, Decompose: true}),
	}
	for _, area := range []float64{0.0001, 0.001, 0.01} {
		queries := datagen.Windows(d, datagen.QuerySpec{N: benchQueries, RelExtent: area, Seed: benchSeed + 7})
		for name, ix := range indices {
			b.Run(name+"/area="+ftoa(area), func(b *testing.B) {
				b.ResetTimer()
				total := 0
				for i := 0; i < b.N; i++ {
					total += ix.WindowCount(queries[i%len(queries)])
				}
				benchSink = total
			})
		}
	}
}

func ftoa(f float64) string {
	switch f {
	case 0.0001:
		return "0.01%"
	case 0.001:
		return "0.1%"
	case 0.01:
		return "1%"
	}
	return "?"
}

// BenchmarkFig9Synthetic: robustness to object area, uniform and zipf —
// the distinguishing sweep of Figure 9.
func BenchmarkFig9Synthetic(b *testing.B) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Zipf} {
		for _, objArea := range []float64{0, 1e-10, 1e-6} {
			d := datagen.Dataset(datagen.Spec{N: benchCard, Area: objArea, Dist: dist, Seed: benchSeed})
			queries := datagen.Windows(d, datagen.QuerySpec{N: benchQueries, RelExtent: 0.001, Seed: benchSeed + 8})
			name := dist.String() + "/objarea=" + eToa(objArea)
			twoL := core.Build(d, core.Options{NX: benchGrid, NY: benchGrid})
			oneL := onelayer.Build(d, onelayer.Options{NX: benchGrid, NY: benchGrid})
			b.Run("2-layer/"+name, func(b *testing.B) {
				b.ResetTimer()
				t := 0
				for i := 0; i < b.N; i++ {
					t += twoL.WindowCount(queries[i%len(queries)])
				}
				benchSink = t
			})
			b.Run("1-layer/"+name, func(b *testing.B) {
				b.ResetTimer()
				t := 0
				for i := 0; i < b.N; i++ {
					t += oneL.WindowCount(queries[i%len(queries)])
				}
				benchSink = t
			})
		}
	}
}

func eToa(f float64) string {
	switch f {
	case 0:
		return "1e-inf"
	case 1e-10:
		return "1e-10"
	case 1e-6:
		return "1e-6"
	}
	return "?"
}

// streamBatch is one op of the Fig. 10/11 benchmarks: the batch streamed
// through BatchWindow into a per-query counter, because Section VI times
// per-result evaluation. BatchWindowCounts answers from the count
// pushdown and skips the per-entry work the two strategies differ in;
// BenchmarkBatchCounts measures that path.
func streamBatch(ix *core.Index, batch []geom.Rect, s core.BatchStrategy, threads int) int {
	counts := make([]atomic.Int64, len(batch))
	ix.BatchWindow(batch, s, threads, func(q int, _ spatial.Entry) { counts[q].Add(1) })
	return len(counts)
}

// BenchmarkFig10Batch: one op = a 1000-query batch, per strategy.
func BenchmarkFig10Batch(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	batch := benchWindows[:1000]
	for _, s := range []core.BatchStrategy{core.QueriesBased, core.TilesBased} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = streamBatch(ix, batch, s, 1)
			}
		})
	}
}

// BenchmarkFig11Parallel: the same batch with increasing thread counts
// (speedup stops at the host's CPU count).
func BenchmarkFig11Parallel(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	batch := benchWindows[:1000]
	for _, threads := range []int{1, 2, 4} {
		for _, s := range []core.BatchStrategy{core.QueriesBased, core.TilesBased} {
			b.Run(s.String()+"/threads="+itoa(threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = streamBatch(ix, batch, s, threads)
				}
			})
		}
	}
}

// BenchmarkBatchCounts: the counted batch forms (what /v1/batch runs),
// 1000 queries per op on the decomposed index, with allocations reported
// so the tiles-based accumulation (offsets, not a slice header per grid
// tile) stays visible.
func BenchmarkBatchCounts(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid, Decompose: true})
	windows, disks := benchWindows[:1000], benchDisks[:1000]
	for _, s := range []core.BatchStrategy{core.QueriesBased, core.TilesBased} {
		for _, threads := range []int{1, 2} {
			name := s.String() + "/threads=" + itoa(threads)
			b.Run("window/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = len(ix.BatchWindowCounts(windows, s, threads))
				}
			})
			b.Run("disk/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = len(ix.BatchDiskCounts(disks, s, threads))
				}
			})
		}
	}
}

// BenchmarkFig12Distributed: end-to-end single window query, simulated
// distributed engine vs 2-layer. The >1000x per-op gap is Figure 12.
func BenchmarkFig12Distributed(b *testing.B) {
	benchData()
	b.Run("distributed-sim", func(b *testing.B) {
		cluster := distsim.NewCluster(benchRoads, distsim.Options{Workers: 4})
		defer cluster.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = cluster.WindowCount(benchWindows[i%len(benchWindows)])
		}
	})
	b.Run("2-layer", func(b *testing.B) {
		ix := core.Build(benchRoads, core.Options{NX: 1000, NY: 1000})
		runWindows(b, ix.WindowCount)
	})
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out ---

// BenchmarkAblationDedup: the 1-layer grid under each duplicate
// elimination technique; refpoint should win, and all lose to 2-layer
// (BenchmarkTable5Window).
func BenchmarkAblationDedup(b *testing.B) {
	benchData()
	for _, mode := range []onelayer.DedupMode{onelayer.RefPoint, onelayer.HashDedup, onelayer.ActiveBorderDedup} {
		b.Run(mode.String(), func(b *testing.B) {
			ix := onelayer.Build(benchRoads, onelayer.Options{NX: benchGrid, NY: benchGrid, Dedup: mode})
			runWindows(b, ix.WindowCount)
		})
	}
}

// BenchmarkAblationDecomposition: plain class scans vs decomposed binary
// search on identical data and grid.
func BenchmarkAblationDecomposition(b *testing.B) {
	benchData()
	b.Run("plain", func(b *testing.B) {
		ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
		runWindows(b, ix.WindowCount)
	})
	b.Run("decomposed", func(b *testing.B) {
		ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid, Decompose: true})
		runWindows(b, ix.WindowCount)
	})
}

// BenchmarkAblationClassSelection isolates the Lemma 1-2 benefit: the
// same grid with class selection (2-layer) vs scan-everything-then-dedup
// (1-layer with refpoint).
func BenchmarkAblationClassSelection(b *testing.B) {
	benchData()
	b.Run("class-selection", func(b *testing.B) {
		ix := core.Build(benchEdges, core.Options{NX: benchGrid, NY: benchGrid})
		runWindows(b, ix.WindowCount)
	})
	b.Run("scan-all-dedup", func(b *testing.B) {
		ix := onelayer.Build(benchEdges, onelayer.Options{NX: benchGrid, NY: benchGrid})
		runWindows(b, ix.WindowCount)
	})
}

// BenchmarkExtensionKNN: k-nearest-neighbor search, two-layer ring
// expansion vs R-tree best-first (the paper's future-work query type).
func BenchmarkExtensionKNN(b *testing.B) {
	benchData()
	queries := make([]geom.Point, 1024)
	for i := range queries {
		queries[i] = benchWindows[i%len(benchWindows)].Center()
	}
	for _, k := range []int{1, 10, 100} {
		b.Run("2-layer/k="+itoa(k), func(b *testing.B) {
			ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = len(ix.KNN(queries[i%len(queries)], k))
			}
		})
		b.Run("R-tree/k="+itoa(k), func(b *testing.B) {
			ix := rtree.BulkSTR(benchRoads, rtree.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = len(ix.KNN(queries[i%len(queries)], k))
			}
		})
	}
}

// BenchmarkExtensionJoin: the class-combination spatial join vs probing
// one index with the other's MBRs. One op = a full join of the two
// datasets.
func BenchmarkExtensionJoin(b *testing.B) {
	benchData()
	space := benchRoads.MBR().Union(benchEdges.MBR())
	opts := core.Options{NX: benchGrid, NY: benchGrid, Space: space}
	r := core.Build(benchRoads, opts)
	s := core.Build(benchEdges, opts)
	b.Run("grid-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = r.JoinCount(s)
		}
	})
	b.Run("index-nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, e := range benchRoads.Entries {
				n += s.WindowCount(e.Rect)
			}
			benchSink = n
		}
	})
}

// BenchmarkRegionQuery: the generic arbitrary-region path (Section IV-E
// generalized) against the specialized disk path, plus a hexagon region,
// at 0.1%, 1% and 5% relative extent: the disk and region forms share
// one cover walk, so the rows show what the per-entry test costs.
func BenchmarkRegionQuery(b *testing.B) {
	benchData()
	ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
	for _, ext := range []struct {
		name  string
		disks []geom.Disk
	}{
		{"0.1%", benchDisks},
		{"1%", datagen.Disks(benchRoads, datagen.QuerySpec{N: 256, RelExtent: 0.01, Seed: benchSeed + 3})},
		{"5%", datagen.Disks(benchRoads, datagen.QuerySpec{N: 256, RelExtent: 0.05, Seed: benchSeed + 3})},
	} {
		disks := ext.disks
		b.Run("disk-native/"+ext.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				q := disks[i%len(disks)]
				total += ix.DiskCount(q.Center, q.Radius)
			}
			benchSink = total
		})
		b.Run("disk-as-region/"+ext.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				n, _ := ix.SearchCount(core.Query{Region: disks[i%len(disks)]})
				total += n
			}
			benchSink = total
		})
		b.Run("hexagon-region/"+ext.name, func(b *testing.B) {
			hexes := make([]*geom.Polygon, min(256, len(disks)))
			for i := range hexes {
				hexes[i] = hexagon(disks[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				n, _ := ix.SearchCount(core.Query{Region: hexes[i%len(hexes)]})
				total += n
			}
			benchSink = total
		})
	}
}

// hexagon is the regular hexagon inscribed in disk c.
func hexagon(c geom.Disk) *geom.Polygon {
	ring := make([]geom.Point, 6)
	for j := range ring {
		a := float64(j) / 6 * 2 * 3.14159265
		ring[j] = geom.Point{X: c.Center.X + c.Radius*math.Cos(a), Y: c.Center.Y + c.Radius*math.Sin(a)}
	}
	return geom.NewPolygon(ring...)
}

// BenchmarkLiveApply: per-mutation cost through the single-writer apply
// loop of a one-shard ShardedLive — one Insert call is submit, batch,
// copy-on-write apply, and publish. The durable variants add write-ahead
// journaling: fsync=none
// leaves flushing to the OS, fsync=interval (the server default) fsyncs
// in the background, and fsync=always pays one fsync per acknowledged
// batch.
func BenchmarkLiveApply(b *testing.B) {
	benchData()
	opts := twolayer.Options{
		GridSize: benchGrid,
		Space:    benchRoads.MBR(),
	}
	entries := benchRoads.Entries

	run := func(b *testing.B, lv *twolayer.ShardedLive) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := entries[i%len(entries)]
			if _, err := lv.Insert(e.ID, e.Rect); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("live", func(b *testing.B) {
		lv := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil, opts,
			twolayer.ShardedOptions{Shards: 1}), twolayer.LiveOptions{})
		defer lv.Close()
		run(b, lv)
	})
	for _, v := range []struct {
		name   string
		policy twolayer.SyncPolicy
	}{
		{"durable/fsync=none", twolayer.SyncNone},
		{"durable/fsync=interval", twolayer.SyncInterval},
		{"durable/fsync=always", twolayer.SyncAlways},
	} {
		b.Run(v.name, func(b *testing.B) {
			dl, _, err := twolayer.OpenDurable(opts, twolayer.LiveOptions{},
				twolayer.DurableOptions{
					Dir:             b.TempDir(),
					Fsync:           v.policy,
					CheckpointEvery: -1, // measure journaling, not checkpoints
					Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
				})
			if err != nil {
				b.Fatal(err)
			}
			defer dl.Close()
			run(b, dl.Live())
		})
	}
}

// BenchmarkDiskQueries: disk query cost of the main methods (Figure 8's
// right columns).
func BenchmarkDiskQueries(b *testing.B) {
	benchData()
	b.Run("2-layer", func(b *testing.B) {
		ix := core.Build(benchRoads, core.Options{NX: benchGrid, NY: benchGrid})
		runDisks(b, ix.DiskCount)
	})
	b.Run("1-layer", func(b *testing.B) {
		ix := onelayer.Build(benchRoads, onelayer.Options{NX: benchGrid, NY: benchGrid})
		runDisks(b, ix.DiskCount)
	})
	b.Run("R-tree", func(b *testing.B) {
		ix := rtree.BulkSTR(benchRoads, rtree.Options{})
		runDisks(b, ix.DiskCount)
	})
	b.Run("quad-tree", func(b *testing.B) {
		ix := quadtree.Build(benchRoads, quadtree.Options{})
		runDisks(b, ix.DiskCount)
	})
}
