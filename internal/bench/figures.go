package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/distsim"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/onelayer"
	"github.com/twolayer/twolayer/internal/spatial"
)

// queryExtents is the paper's relative-extent sweep: 0.01% .. 1% of the map.
var queryExtents = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01}

// Fig6 regenerates Figure 6: execution time breakdown of the refinement
// variants (Simple, RefAvoid, RefAvoid+) for window and disk queries on
// the two-layer index over exact geometries.
func Fig6(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 6: refinement-step variants on 2-layer ==\n")
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges} {
		d := c.realDataset(kind)
		ix := core.Build(d, core.Options{NX: core.SuggestGridSize(d.Len()), NY: core.SuggestGridSize(d.Len())})
		windows := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 2})
		disks := datagen.Disks(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 3})

		c.printf("-- %s, window queries (avg us/query) --\n", kind)
		for _, mode := range []core.RefineMode{core.RefineSimple, core.RefineAvoid, core.RefineAvoidPlus} {
			stats := &core.Stats{}
			v := ix.View(stats)
			start := time.Now()
			done := 0
			for i := range windows {
				// ix holds its dataset, so an exact query cannot fail. The
				// shape points into the query set: Search keeps its Query
				// (the Region case), so a per-query copy would be allocated.
				_, _ = v.Search(core.Query{Window: &windows[i], Exact: true, Mode: mode}, func(spatial.Entry) bool { return true })
				done++
				if done%16 == 0 && time.Since(start) > c.TimePerPoint {
					break
				}
			}
			el := time.Since(start)
			c.printf("  %-9s %8.1f us/query   refinements=%d filter-hits=%d\n",
				mode, float64(el.Microseconds())/float64(done),
				stats.RefinementTests, stats.SecondaryFilterHits)
		}

		c.printf("-- %s, disk queries (avg us/query; RefAvoid+ not applicable) --\n", kind)
		for _, mode := range []core.RefineMode{core.RefineSimple, core.RefineAvoid} {
			stats := &core.Stats{}
			v := ix.View(stats)
			start := time.Now()
			done := 0
			for i := range disks {
				_, _ = v.Search(core.Query{Disk: &disks[i], Exact: true, Mode: mode}, func(spatial.Entry) bool { return true })
				done++
				if done%16 == 0 && time.Since(start) > c.TimePerPoint {
					break
				}
			}
			el := time.Since(start)
			c.printf("  %-9s %8.1f us/query   refinements=%d filter-hits=%d distances=%d\n",
				mode, float64(el.Microseconds())/float64(done),
				stats.RefinementTests, stats.SecondaryFilterHits, stats.DistanceComputations)
		}
	}
	c.printf("(paper: secondary filter cuts refinements by >90%%; window bottleneck moves to filtering)\n\n")
}

// Fig7 regenerates Figure 7: index build time, size and window query
// throughput of the grid indices as the granularity varies.
func Fig7(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 7: building and tuning grid indices ==\n")
	grids := []int{256, 512, 1024, 2048, 4096}
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges} {
		d := c.realDataset(kind)
		queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 4})
		c.printf("-- %s (%d objects) --\n", kind, d.Len())
		c.printf("%-6s | %8s %8s %9s | %8s %8s %9s | %8s %8s %9s\n",
			"grid", "1L-build", "1L-MB", "1L-q/s", "2L-build", "2L-MB", "2L-q/s", "2L+build", "2L+MB", "2L+q/s")
		for _, g := range grids {
			start := time.Now()
			ol := onelayer.Build(d, onelayer.Options{NX: g, NY: g})
			olBuild := time.Since(start)
			olT, _ := c.measureWindows(ol, queries)
			olMB := float64(ol.MemoryFootprint()) / (1 << 20)

			start = time.Now()
			tl := core.Build(d, core.Options{NX: g, NY: g})
			tlBuild := time.Since(start)
			tlT, _ := c.measureWindows(tl, queries)
			tlMB := float64(tl.MemoryFootprint()) / (1 << 20)

			start = time.Now()
			tp := core.Build(d, core.Options{NX: g, NY: g, Decompose: true})
			tpBuild := time.Since(start)
			tpT, _ := c.measureWindows(tp, queries)
			tpMB := float64(tp.MemoryFootprint()) / (1 << 20)

			c.printf("%-6d | %8.2f %8.1f %9.0f | %8.2f %8.1f %9.0f | %8.2f %8.1f %9.0f\n",
				g, olBuild.Seconds(), olMB, olT, tlBuild.Seconds(), tlMB, tlT,
				tpBuild.Seconds(), tpMB, tpT)
		}
	}
	c.printf("(paper: 1-layer and 2-layer same size; 2-layer+ larger & fastest; broad optimum)\n\n")
}

// Fig8 regenerates Figure 8: throughput vs query extent and vs selectivity
// for window and disk queries on the three real datasets.
func Fig8(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 8: query processing on real data ==\n")
	for _, kind := range realKinds() {
		d := c.realDataset(kind)
		gridN := core.SuggestGridSize(d.Len())
		methods := KeyMethods()
		built := make([]QueryIndex, len(methods))
		for i, m := range methods {
			built[i] = m.Build(d, gridN)
		}

		c.printf("-- %s: window throughput [queries/s] vs relative extent --\n", kind)
		c.printf("%-10s", "extent%")
		for _, m := range methods {
			c.printf(" %12s", m.Name)
		}
		c.printf("\n")
		type selSample struct {
			sel float64 // selectivity %
			us  float64 // per-query time (us) of 2-layer
		}
		var samples []selSample
		for _, extent := range queryExtents {
			queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(2000), RelExtent: extent, Seed: c.Seed + 5})
			c.printf("%-10.2f", extent*100)
			for i := range methods {
				tput, _ := c.measureWindows(built[i], queries)
				c.printf(" %12.0f", tput)
				if methods[i].Name == "2-layer" {
					// Collect per-query selectivity samples for the
					// selectivity-bucketed view.
					for _, w := range queries[:min(len(queries), 200)] {
						start := time.Now()
						n := built[i].WindowCount(w)
						el := time.Since(start)
						samples = append(samples, selSample{
							sel: 100 * float64(n) / float64(d.Len()),
							us:  float64(el.Nanoseconds()) / 1e3,
						})
					}
				}
			}
			c.printf("\n")
		}

		// Selectivity buckets, as in the paper's second column.
		buckets := []struct {
			label  string
			lo, hi float64
		}{
			{"[0,0.01]", 0, 0.01},
			{"(0.01,0.1]", 0.01, 0.1},
			{"(0.1,1]", 0.1, 1},
			{"(1,100]", 1, 100},
		}
		c.printf("   2-layer by selectivity:")
		for _, b := range buckets {
			var sum float64
			var n int
			for _, s := range samples {
				if s.sel > b.lo && s.sel <= b.hi || (b.lo == 0 && s.sel == 0) {
					sum += s.us
					n++
				}
			}
			if n > 0 {
				c.printf("  %s=%.0fus", b.label, sum/float64(n))
			}
		}
		c.printf("\n")

		c.printf("-- %s: disk throughput [queries/s] vs relative extent (2-layer+ excluded) --\n", kind)
		c.printf("%-10s", "extent%")
		for _, m := range methods {
			if m.Name == "2-layer+" {
				continue
			}
			c.printf(" %12s", m.Name)
		}
		c.printf("\n")
		for _, extent := range queryExtents {
			disks := datagen.Disks(d, datagen.QuerySpec{N: c.n(2000), RelExtent: extent, Seed: c.Seed + 6})
			c.printf("%-10.2f", extent*100)
			for i := range methods {
				if methods[i].Name == "2-layer+" {
					continue
				}
				tput, _ := c.measureDisks(built[i], disks)
				c.printf(" %12.0f", tput)
			}
			c.printf("\n")
		}
	}
	c.printf("(paper: 2-layer/2-layer+ consistently fastest across extents and selectivities)\n\n")
}

// Fig9 regenerates Figure 9: window queries on synthetic data — query
// extent, cardinality and object-area sweeps, uniform and zipfian.
func Fig9(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 9: query processing on synthetic data (window) ==\n")
	methods := KeyMethods()
	defaultCard := c.n(500_000) // paper default 10M, scaled by 1/20
	defaultArea := 1e-10

	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Zipf} {
		c.printf("-- %s: throughput vs query extent (card=%d, obj area=%g) --\n",
			dist, defaultCard, defaultArea)
		d := datagen.Dataset(datagen.Spec{N: defaultCard, Area: defaultArea, Dist: dist, Seed: c.Seed})
		printMethodsHeader(c, methods)
		built := buildAll(methods, d)
		for _, extent := range queryExtents {
			queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(2000), RelExtent: extent, Seed: c.Seed + 7})
			c.printf("%-10.2f", extent*100)
			for i := range methods {
				tput, _ := c.measureWindows(built[i], queries)
				c.printf(" %12.0f", tput)
			}
			c.printf("\n")
		}

		c.printf("-- %s: throughput vs cardinality (query extent 0.1%%) --\n", dist)
		printMethodsHeader(c, methods)
		for _, card := range []int{c.n(50_000), c.n(250_000), c.n(500_000), c.n(2_500_000)} {
			dc := datagen.Dataset(datagen.Spec{N: card, Area: defaultArea, Dist: dist, Seed: c.Seed})
			queries := datagen.Windows(dc, datagen.QuerySpec{N: c.n(2000), RelExtent: 0.001, Seed: c.Seed + 8})
			c.printf("%-10d", card)
			for i := range methods {
				ix := methods[i].Build(dc, core.SuggestGridSize(card))
				tput, _ := c.measureWindows(ix, queries)
				c.printf(" %12.0f", tput)
			}
			c.printf("\n")
		}

		c.printf("-- %s: throughput vs object area (card=%d, query extent 0.1%%) --\n", dist, defaultCard)
		printMethodsHeader(c, methods)
		for _, objArea := range []float64{0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6} {
			dc := datagen.Dataset(datagen.Spec{N: defaultCard, Area: objArea, Dist: dist, Seed: c.Seed})
			queries := datagen.Windows(dc, datagen.QuerySpec{N: c.n(2000), RelExtent: 0.001, Seed: c.Seed + 9})
			c.printf("%-10.0e", objArea)
			for i := range methods {
				ix := methods[i].Build(dc, core.SuggestGridSize(defaultCard))
				tput, _ := c.measureWindows(ix, queries)
				c.printf(" %12.0f", tput)
			}
			c.printf("\n")
		}
	}
	c.printf("(paper: 2-layer robust to object area; 1-layer/quad-tree degrade as replication grows)\n\n")
}

func printMethodsHeader(c Config, methods []Method) {
	c.printf("%-10s", "param")
	for _, m := range methods {
		c.printf(" %12s", m.Name)
	}
	c.printf("\n")
}

func buildAll(methods []Method, d *spatial.Dataset) []QueryIndex {
	out := make([]QueryIndex, len(methods))
	for i, m := range methods {
		out[i] = m.Build(d, core.SuggestGridSize(d.Len()))
	}
	return out
}

// streamBatch times one batch the way Section VI measures it: every
// result is produced and handed to a consumer (a per-query counter
// here). BatchWindowCounts would time the count pushdown instead, which
// skips the per-entry work the two strategies differ in.
func streamBatch(ix *core.Index, queries []geom.Rect, s core.BatchStrategy, threads int) time.Duration {
	counts := make([]atomic.Int64, len(queries))
	start := time.Now()
	ix.BatchWindow(queries, s, threads, func(q int, _ spatial.Entry) { counts[q].Add(1) })
	return time.Since(start)
}

// Fig10 regenerates Figure 10: batch window query processing, queries-based
// vs tiles-based, total time over a 10K-query batch per query extent.
func Fig10(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 10: batch query processing (total secs, 10K queries) ==\n")
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges} {
		d := c.realDataset(kind)
		ix := core.Build(d, core.Options{NX: core.SuggestGridSize(d.Len()), NY: core.SuggestGridSize(d.Len())})
		c.printf("-- %s --\n%-10s %14s %14s\n", kind, "extent%", "queries-based", "tiles-based")
		for _, extent := range queryExtents {
			queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: extent, Seed: c.Seed + 10})
			qb := streamBatch(ix, queries, core.QueriesBased, 1)
			tb := streamBatch(ix, queries, core.TilesBased, 1)
			c.printf("%-10.2f %14.3f %14.3f\n", extent*100, qb.Seconds(), tb.Seconds())
		}
	}
	c.printf("(paper: tiles-based wins on large/dense batches, loses when per-tile work is tiny)\n\n")
}

// Fig11 regenerates Figure 11: speedup of batch processing with the
// number of threads, which flattens at the host's CPU count.
func Fig11(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 11: parallel batch processing speedup (%d CPU(s)) ==\n", runtime.NumCPU())
	threads := []int{1, 2, 4, 8, 16}
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges} {
		d := c.realDataset(kind)
		ix := core.Build(d, core.Options{NX: core.SuggestGridSize(d.Len()), NY: core.SuggestGridSize(d.Len())})
		queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 11})
		c.printf("-- %s --\n%-8s %14s %14s\n", kind, "threads", "queries-based", "tiles-based")
		var qb1, tb1 time.Duration
		for _, th := range threads {
			qb := streamBatch(ix, queries, core.QueriesBased, th)
			tb := streamBatch(ix, queries, core.TilesBased, th)
			if th == 1 {
				qb1, tb1 = qb, tb
			}
			c.printf("%-8d %13.2fx %13.2fx\n", th,
				qb1.Seconds()/qb.Seconds(), tb1.Seconds()/tb.Seconds())
		}
	}
	c.printf("(paper: tiles-based scales near-linearly to ~25 threads; queries-based poorly)\n\n")
}

// Fig12 regenerates Figure 12: the 2-layer index vs the simulated
// distributed engine (GeoSpark substitute), end-to-end window queries.
func Fig12(c Config) {
	c = c.withDefaults()
	c.printf("== Figure 12: 2-layer vs simulated distributed engine ==\n")
	d := c.realDataset(datagen.Roads)
	ix := core.Build(d, core.Options{NX: 1000, NY: 1000})
	queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(100), RelExtent: 0.001, Seed: c.Seed + 12})

	c.printf("%-8s %18s %14s   [queries/sec, 100 queries]\n", "threads", "distributed-sim", "2-layer")
	for _, th := range []int{1, 2, 4, 6, 8, 12} {
		cluster := distsim.NewCluster(d, distsim.Options{Workers: th})
		start := time.Now()
		for _, w := range queries {
			cluster.WindowCount(w)
		}
		distT := float64(len(queries)) / time.Since(start).Seconds()
		cluster.Close()

		start = time.Now()
		parallelWindows(ix, queries, th)
		ixT := float64(len(queries)) / time.Since(start).Seconds()
		c.printf("%-8d %18.2f %14.0f\n", th, distT, ixT)
	}
	c.printf("(paper: 2-layer at least three orders of magnitude faster end-to-end)\n\n")
}

// parallelWindows evaluates queries independently on th goroutines
// (round-robin), the paper's Fig. 12 multi-threaded setting.
func parallelWindows(ix *core.Index, queries []geom.Rect, th int) {
	var total int64
	var wg sync.WaitGroup
	for w := 0; w < th; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for q := w; q < len(queries); q += th {
				n += ix.WindowCount(queries[q])
			}
			atomic.AddInt64(&total, int64(n))
		}(w)
	}
	wg.Wait()
}
