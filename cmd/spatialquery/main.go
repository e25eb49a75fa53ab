// Command spatialquery loads a dataset file (building a two-layer index)
// or a binary index snapshot, and answers window or disk queries from the
// command line or from a query file, printing result counts and timings.
//
// Usage:
//
//	spatialquery -data roads.csv -window 0.4,0.4,0.45,0.45
//	spatialquery -data roads.csv -disk 0.5,0.5,0.01 -exact
//	spatialquery -data roads.csv -queryfile q.csv -grid 1024
//	spatialquery -snapshot roads.idx -window 0.4,0.4,0.45,0.45
//
// Snapshots (written by Index.Save, spatialserver -save, or a durability
// checkpoint) carry MBRs only, so -exact requires -data.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/dataio"
	"github.com/twolayer/twolayer/internal/spatial"
)

// spatialDataset aliases the loaded dataset type for readability.
type spatialDataset = spatial.Dataset

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, have %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func main() {
	dataPath := flag.String("data", "", "dataset file (dataio format)")
	snapshotPath := flag.String("snapshot", "", "binary index snapshot to load instead of -data (MBR queries only)")
	gridSize := flag.Int("grid", 1024, "grid tiles per dimension")
	decompose := flag.Bool("decompose", true, "build 2-layer+ decomposed tables")
	window := flag.String("window", "", "one window query: minx,miny,maxx,maxy")
	disk := flag.String("disk", "", "one disk query: cx,cy,radius")
	knn := flag.String("knn", "", "one kNN query: cx,cy,k")
	queryFile := flag.String("queryfile", "", "file of window queries (rect CSV)")
	exact := flag.Bool("exact", false, "run exact-geometry queries (refinement)")
	flag.Parse()

	var idx *twolayer.Index
	switch {
	case *dataPath != "" && *snapshotPath != "":
		fail(fmt.Errorf("-data and -snapshot are mutually exclusive"))
	case *snapshotPath != "":
		if *exact {
			fail(fmt.Errorf("-exact requires -data: snapshots carry MBRs, not exact geometries"))
		}
		f, err := os.Open(*snapshotPath)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		loaded, err := twolayer.Load(f)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w", *snapshotPath, err))
		}
		idx = loaded
		fmt.Printf("loaded snapshot of %d objects in %v (replication %.3f)\n",
			idx.Len(), time.Since(start).Round(time.Millisecond), idx.ReplicationFactor())
	case *dataPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			fail(err)
		}
		var d *spatialDataset
		if strings.HasSuffix(*dataPath, ".wkt") {
			ds, err2 := dataio.ReadWKT(f)
			f.Close()
			if err2 != nil {
				fail(err2)
			}
			d = ds
		} else {
			ds, err2 := dataio.ReadDataset(f)
			f.Close()
			if err2 != nil {
				fail(err2)
			}
			d = ds
		}
		geoms := make([]twolayer.Geometry, d.Len())
		for i := range geoms {
			geoms[i] = d.Geom(uint32(i))
		}
		start := time.Now()
		idx = twolayer.BuildGeoms(geoms, twolayer.Options{GridSize: *gridSize, Decompose: *decompose})
		fmt.Printf("indexed %d objects in %v (replication %.3f)\n",
			idx.Len(), time.Since(start).Round(time.Millisecond), idx.ReplicationFactor())
	default:
		fail(fmt.Errorf("one of -data or -snapshot is required"))
	}

	count := func(q twolayer.Query) int {
		n, err := idx.SearchCount(q)
		if err != nil {
			fail(err)
		}
		return n
	}
	runWindow := func(w twolayer.Rect) {
		start := time.Now()
		n := count(twolayer.Query{Window: &w, Exact: *exact, Mode: twolayer.RefineAvoidPlus})
		fmt.Printf("window %v -> %d results in %v\n", w, n, time.Since(start))
	}

	switch {
	case *window != "":
		v, err := parseFloats(*window, 4)
		if err != nil {
			fail(err)
		}
		runWindow(twolayer.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]})
	case *disk != "":
		v, err := parseFloats(*disk, 3)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		n := count(twolayer.Query{
			Disk:  &twolayer.Disk{Center: twolayer.Point{X: v[0], Y: v[1]}, Radius: v[2]},
			Exact: *exact,
			Mode:  twolayer.RefineAvoid,
		})
		fmt.Printf("disk (%g,%g) r=%g -> %d results in %v\n", v[0], v[1], v[2], n, time.Since(start))
	case *knn != "":
		v, err := parseFloats(*knn, 3)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		var results []twolayer.Neighbor
		if *exact {
			results = idx.KNNExact(twolayer.Point{X: v[0], Y: v[1]}, int(v[2]))
		} else {
			results = idx.KNN(twolayer.Point{X: v[0], Y: v[1]}, int(v[2]))
		}
		el := time.Since(start)
		for _, n := range results {
			fmt.Printf("id=%d dist=%.8f\n", n.ID, n.Dist)
		}
		fmt.Printf("%d neighbors in %v\n", len(results), el)
	case *queryFile != "":
		qf, err := os.Open(*queryFile)
		if err != nil {
			fail(err)
		}
		queries, err := dataio.ReadRects(qf)
		qf.Close()
		if err != nil {
			fail(err)
		}
		start := time.Now()
		total := 0
		for _, w := range queries {
			total += count(twolayer.Query{Window: &w})
		}
		el := time.Since(start)
		fmt.Printf("%d queries, %d total results, %v (%.0f queries/s)\n",
			len(queries), total, el.Round(time.Millisecond),
			float64(len(queries))/el.Seconds())
	default:
		fail(fmt.Errorf("one of -window, -disk, -knn, -queryfile is required"))
	}
}
