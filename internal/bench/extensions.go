package bench

import (
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/rtree"
)

// Extensions benchmarks the paper's stated future-work query types as
// implemented in this library: k-nearest-neighbor search and the spatial
// intersection join, both on the two-layer grid with an R-tree reference
// point.
func Extensions(c Config) {
	c = c.withDefaults()
	c.printf("== Extensions: kNN and spatial join (paper future work) ==\n")

	d := c.realDataset(datagen.Roads)
	gridN := core.SuggestGridSize(d.Len())
	tl := core.Build(d, core.Options{NX: gridN, NY: gridN})
	rt := rtree.BulkSTR(d, rtree.Options{})

	// kNN: query points follow the data distribution.
	queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 13})
	points := make([]geom.Point, len(queries))
	for i, w := range queries {
		points[i] = w.Center()
	}
	c.printf("-- kNN throughput [queries/s] on ROADS (%d objects) --\n", d.Len())
	c.printf("%-6s %14s %14s\n", "k", "2-layer", "R-tree")
	for _, k := range []int{1, 10, 100} {
		tput1 := measureKNN(c, func(p geom.Point) int { return len(tl.KNN(p, k)) }, points)
		tput2 := measureKNN(c, func(p geom.Point) int { return len(rt.KNN(p, k)) }, points)
		c.printf("%-6d %14.0f %14.0f\n", k, tput1, tput2)
	}

	// Join: ROADS-like against EDGES-like on a shared grid.
	e := c.realDataset(datagen.Edges)
	space := d.MBR().Union(e.MBR())
	r := core.Build(d, core.Options{NX: gridN, NY: gridN, Space: space})
	s := core.Build(e, core.Options{NX: gridN, NY: gridN, Space: space})
	c.printf("-- spatial join ROADS x EDGES (%d x %d objects) --\n", d.Len(), e.Len())

	start := time.Now()
	pairs := r.JoinCount(s)
	joinTime := time.Since(start)
	c.printf("grid join (class combos):  %d pairs in %.3fs\n", pairs, joinTime.Seconds())

	start = time.Now()
	probe := 0
	for _, entry := range d.Entries {
		probe += s.WindowCount(entry.Rect)
		if time.Since(start) > 4*c.TimePerPoint {
			// Extrapolate the nested-loop baseline if it is very slow.
			frac := float64(probe) / float64(pairs)
			c.printf("index nested loop:         extrapolating after %.0f%% of pairs\n", 100*frac)
			break
		}
	}
	probeTime := time.Since(start)
	c.printf("index nested loop:         %d pairs in %.3fs\n", probe, probeTime.Seconds())
	c.printf("\n")
}

func measureKNN(c Config, run func(geom.Point) int, points []geom.Point) float64 {
	start := time.Now()
	done := 0
	for _, p := range points {
		benchSinkInt += run(p)
		done++
		if done%16 == 0 && time.Since(start) > c.TimePerPoint {
			break
		}
	}
	el := time.Since(start)
	if el <= 0 {
		el = time.Nanosecond
	}
	return float64(done) / el.Seconds()
}

// benchSinkInt defeats dead-code elimination in measurements.
var benchSinkInt int
