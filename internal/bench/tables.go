package bench

import (
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/onelayer"
	"github.com/twolayer/twolayer/internal/quadtree"
	"github.com/twolayer/twolayer/internal/rtree"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Table3 regenerates Table III: the real-world dataset statistics, for
// the emulated (scaled) datasets next to the paper's originals.
func Table3(c Config) {
	c = c.withDefaults()
	c.printf("== Table III: real-world datasets (emulated, scaled) ==\n")
	c.printf("%-8s %-12s %10s %14s %14s   %s\n",
		"dataset", "type", "card.", "avg x-extent", "avg y-extent", "paper (card/x/y)")
	for _, kind := range realKinds() {
		d := c.realDataset(kind)
		s := datagen.Stats(d)
		typ := "mixed"
		switch kind {
		case datagen.Roads:
			typ = "linestrings"
		case datagen.Edges:
			typ = "polygons"
		}
		px, py := kind.AvgExtent()
		c.printf("%-8s %-12s %10d %14.8f %14.8f   %d / %.8f / %.8f\n",
			kind, typ, s.Cardinality, s.AvgXExtent, s.AvgYExtent,
			kind.PaperCardinality(), px, py)
	}
	c.printf("\n")
}

// Table4 prints the synthetic workload parameters (Table IV); the values
// themselves parameterize Figure 9.
func Table4(c Config) {
	c = c.withDefaults()
	c.printf("== Table IV: synthetic datasets (parameters) ==\n")
	c.printf("cardinality: 1M, 5M, 10M, 50M, 100M (scaled by %g/20, default 0.5M)\n", c.Scale)
	c.printf("area:        1e-inf, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6 (default 1e-10)\n")
	c.printf("distribution: uniform or zipfian (a=1)\n\n")
}

// Table5 regenerates Table V: window query throughput of every compared
// method on ROADS and EDGES (10K queries, 0.1%% relative area).
func Table5(c Config) {
	c = c.withDefaults()
	c.printf("== Table V: method comparison, window queries (0.1%% extent) ==\n")
	c.printf("%-18s %14s %14s   [queries/sec]\n", "index", "ROADS", "EDGES")
	type row struct {
		name string
		tput map[datagen.RealLike]float64
	}
	rows := make([]row, 0, len(AllMethods()))
	for _, m := range AllMethods() {
		rows = append(rows, row{name: m.Name, tput: map[datagen.RealLike]float64{}})
	}
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges} {
		d := c.realDataset(kind)
		queries := datagen.Windows(d, datagen.QuerySpec{N: c.n(10000), RelExtent: 0.001, Seed: c.Seed + 1})
		gridN := core.SuggestGridSize(d.Len())
		for i, m := range AllMethods() {
			ix := m.Build(d, gridN)
			tput, _ := c.measureWindows(ix, queries)
			rows[i].tput[kind] = tput
		}
	}
	for _, r := range rows {
		c.printf("%-18s %14.0f %14.0f\n", r.name, r.tput[datagen.Roads], r.tput[datagen.Edges])
	}
	c.printf("(paper: 2-layer/2-layer+ lead; R-tree best DOP; BLOCK and MXCIF orders slower)\n\n")
}

// Table6 regenerates Table VI: total update cost — bulk-load 90% of each
// dataset, then measure inserting the final 10%.
func Table6(c Config) {
	c = c.withDefaults()
	c.printf("== Table VI: total update cost (insert last 10%%) [sec] ==\n")
	c.printf("%-8s %10s %12s %10s %10s\n", "dataset", "R-tree", "quad-tree", "1-layer", "2-layer")
	for _, kind := range realKinds() {
		d := c.realDataset(kind)
		split := d.Len() * 9 / 10
		head := &spatial.Dataset{Entries: d.Entries[:split]}
		tail := d.Entries[split:]
		gridN := core.SuggestGridSize(d.Len())
		space := d.MBR()

		rt := rtree.BulkSTR(head, rtree.Options{})
		rtTime := timeInserts(tail, func(e spatial.Entry) { rt.Insert(e) })

		qt := quadtree.Build(head, quadtree.Options{Space: space})
		qtTime := timeInserts(tail, func(e spatial.Entry) { qt.Insert(e) })

		ol := onelayer.Build(head, onelayer.Options{NX: gridN, NY: gridN, Space: space})
		olTime := timeInserts(tail, func(e spatial.Entry) { ol.Insert(e) })

		tl := core.Build(head, core.Options{NX: gridN, NY: gridN, Space: space})
		tlTime := timeInserts(tail, func(e spatial.Entry) { tl.Insert(e) })

		c.printf("%-8s %10.3f %12.3f %10.3f %10.3f\n", kind,
			rtTime.Seconds(), qtTime.Seconds(), olTime.Seconds(), tlTime.Seconds())
	}
	c.printf("(paper: R-tree ~2 orders slower than grids; 2-layer slightly above 1-layer)\n\n")
}

func timeInserts(entries []spatial.Entry, insert func(spatial.Entry)) time.Duration {
	start := time.Now()
	for _, e := range entries {
		insert(e)
	}
	return time.Since(start)
}
