// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section VII) on scaled-down workloads,
// printing paper-style result tables. The cmd/experiments binary and the
// repository-level Go benchmarks are thin wrappers around this package.
//
// Scaling: the paper's datasets hold 20M-98M objects and its grids go up
// to 20000 tiles per dimension. The harness defaults to laptop-scale
// fractions of both (Config.Scale multiplies cardinalities); relative
// comparisons — who wins and by what factor — are preserved, absolute
// numbers are not comparable to the paper's hardware.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/twolayer/twolayer/internal/block"
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/onelayer"
	"github.com/twolayer/twolayer/internal/quadtree"
	"github.com/twolayer/twolayer/internal/rtree"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Config controls experiment scale and output.
type Config struct {
	// Out receives the formatted result tables.
	Out io.Writer
	// Scale multiplies the default (laptop-scale) cardinalities and
	// query counts. 1.0 uses the defaults documented per experiment.
	Scale float64
	// TimePerPoint caps the measurement time of one (method, parameter)
	// cell; slow methods get their throughput extrapolated from however
	// many queries completed. Default 5s.
	TimePerPoint time.Duration
	// Seed drives all workload generation.
	Seed int64
	// BuildThreads is the worker count the "build" experiment uses for
	// its parallel column (core.Options.BuildThreads semantics: 0 means
	// core.DefaultThreads()). Other experiments build their indices with the
	// default pipeline.
	BuildThreads int
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.TimePerPoint == 0 {
		c.TimePerPoint = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 20210419 // ICDE 2021
	}
	return c
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// QueryIndex is the least common denominator all compared indices
// implement.
type QueryIndex interface {
	WindowCount(w geom.Rect) int
	DiskCount(center geom.Point, radius float64) int
}

// Method is one compared index configuration.
type Method struct {
	Name  string
	Build func(d *spatial.Dataset, gridN int) QueryIndex
}

// Grid-based methods take the tile count per dimension; tree methods
// ignore it.
var (
	twoLayer = Method{"2-layer", func(d *spatial.Dataset, n int) QueryIndex {
		return core.Build(d, core.Options{NX: n, NY: n})
	}}
	twoLayerPlus = Method{"2-layer+", func(d *spatial.Dataset, n int) QueryIndex {
		return core.Build(d, core.Options{NX: n, NY: n, Decompose: true})
	}}
	oneLayer = Method{"1-layer", func(d *spatial.Dataset, n int) QueryIndex {
		return onelayer.Build(d, onelayer.Options{NX: n, NY: n})
	}}
	quadTree = Method{"quad-tree", func(d *spatial.Dataset, _ int) QueryIndex {
		return quadtree.Build(d, quadtree.Options{})
	}}
	quadTwoLayer = Method{"quad-tree 2-layer", func(d *spatial.Dataset, _ int) QueryIndex {
		return quadtree.Build(d, quadtree.Options{Mode: quadtree.TwoLayer})
	}}
	rTree = Method{"R-tree", func(d *spatial.Dataset, _ int) QueryIndex {
		return rtree.BulkSTR(d, rtree.Options{})
	}}
	rStarTree = Method{"R*-tree", func(d *spatial.Dataset, _ int) QueryIndex {
		return rtree.BuildRStar(d, rtree.Options{})
	}}
	blockIndex = Method{"BLOCK", func(d *spatial.Dataset, _ int) QueryIndex {
		return block.Build(d, block.Options{})
	}}
	mxcifTree = Method{"MXCIF quad-tree", func(d *spatial.Dataset, _ int) QueryIndex {
		return quadtree.Build(d, quadtree.Options{Mode: quadtree.MXCIF})
	}}
)

// KeyMethods are the paper's five main competitors (used by Figures 8-9).
func KeyMethods() []Method {
	return []Method{rTree, quadTree, oneLayer, twoLayer, twoLayerPlus}
}

// AllMethods are the Table V competitors.
func AllMethods() []Method {
	return []Method{twoLayer, twoLayerPlus, oneLayer, quadTree, quadTwoLayer,
		rTree, rStarTree, blockIndex, mxcifTree}
}

// measureWindows runs window queries against ix under the time budget and
// returns throughput (queries/second) plus the total result count.
func (c Config) measureWindows(ix QueryIndex, queries []geom.Rect) (float64, int) {
	start := time.Now()
	done, results := 0, 0
	for _, w := range queries {
		results += ix.WindowCount(w)
		done++
		if done%16 == 0 && time.Since(start) > c.TimePerPoint {
			break
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(done) / elapsed.Seconds(), results
}

// measureDisks is measureWindows for disk queries.
func (c Config) measureDisks(ix QueryIndex, queries []geom.Disk) (float64, int) {
	start := time.Now()
	done, results := 0, 0
	for _, q := range queries {
		results += ix.DiskCount(q.Center, q.Radius)
		done++
		if done%16 == 0 && time.Since(start) > c.TimePerPoint {
			break
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(done) / elapsed.Seconds(), results
}

// Run executes the experiment with the given id ("table3", "table5",
// "table6", "fig6".."fig12", or "all").
func Run(id string, cfg Config) error {
	cfg = cfg.withDefaults()
	experiments := map[string]func(Config){
		"table3": Table3,
		"table4": Table4,
		"table5": Table5,
		"table6": Table6,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		"ext":    Extensions,
		"build":  BuildExp,
	}
	if id == "all" {
		for _, name := range []string{"table3", "table4", "table5", "table6",
			"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ext", "build"} {
			experiments[name](cfg)
		}
		return nil
	}
	f, ok := experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	f(cfg)
	return nil
}

// realDataset builds a scaled real-like dataset. Base cardinalities are
// 1/20 of the paper's (ROADS 1M, EDGES 3.5M, TIGER 4.9M at Scale=1).
func (c Config) realDataset(kind datagen.RealLike) *spatial.Dataset {
	return datagen.RealLikeDataset(kind, c.n(kind.PaperCardinality()/20), c.Seed)
}

// realKinds lists the emulated datasets.
func realKinds() []datagen.RealLike {
	return []datagen.RealLike{datagen.Roads, datagen.Edges, datagen.Tiger}
}
