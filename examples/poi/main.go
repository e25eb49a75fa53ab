// Location-based analytics: index the spatial influence regions of mobile
// users (polygons around their activity centers) and answer large batches
// of POI-visibility queries — the workload from the paper's introduction
// (effective POI recommendation needs "which influence regions cover this
// candidate POI area?" at high throughput).
//
// The example contrasts the two batch strategies of Section VI
// (queries-based vs cache-conscious tiles-based), serial and on all
// cores.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// influenceRegion approximates a user's activity area: a convex polygon
// around a home location, larger for more mobile users.
func influenceRegion(rnd *rand.Rand) twolayer.Geometry {
	cx, cy := rnd.Float64(), rnd.Float64()
	radius := 0.0005 + rnd.ExpFloat64()*0.002 // a few very mobile users
	n := 5 + rnd.Intn(4)
	ring := make([]twolayer.Point, n)
	for i := range ring {
		a := (float64(i) + 0.3*rnd.Float64()) / float64(n) * 2 * math.Pi
		r := radius * (0.7 + 0.3*rnd.Float64())
		ring[i] = twolayer.Point{
			X: math.Max(0, math.Min(1, cx+r*math.Cos(a))),
			Y: math.Max(0, math.Min(1, cy+r*math.Sin(a))),
		}
	}
	return twolayer.NewPolygon(ring...)
}

func main() {
	rnd := rand.New(rand.NewSource(99))
	fmt.Println("building user influence regions...")
	regions := make([]twolayer.Geometry, 1_000_000)
	for i := range regions {
		regions[i] = influenceRegion(rnd)
	}
	idx := twolayer.BuildGeoms(regions, twolayer.Options{GridSize: 1024, Decompose: true})
	fmt.Printf("indexed %d regions, replication %.3f\n", idx.Len(), idx.ReplicationFactor())

	// A batch of candidate POI areas: "how many users would see an ad
	// placed here?"
	const batch = 10_000
	queries := make([]twolayer.Rect, batch)
	for i := range queries {
		x, y := rnd.Float64(), rnd.Float64()
		queries[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.005, MaxY: y + 0.005}
	}

	cores := runtime.NumCPU()
	for _, cfg := range []struct {
		strategy twolayer.BatchStrategy
		threads  int
	}{
		{twolayer.QueriesBased, 1},
		{twolayer.TilesBased, 1},
		{twolayer.QueriesBased, cores},
		{twolayer.TilesBased, cores},
	} {
		start := time.Now()
		counts := idx.BatchWindowCounts(queries, cfg.strategy, cfg.threads)
		elapsed := time.Since(start)
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("%-13s threads=%-2d  %8.0f queries/s  (%d candidate pairs)\n",
			cfg.strategy, cfg.threads, float64(batch)/elapsed.Seconds(), total)
	}

	// Single ad placement with exact geometry check.
	spot := twolayer.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.505, MaxY: 0.505}
	// The index holds the geometries, so the exact count cannot fail.
	reach, _ := idx.SearchCount(twolayer.Query{Window: &spot, Exact: true, Mode: twolayer.RefineAvoidPlus})
	fmt.Printf("exact audience at %v: %d users\n", spot, reach)
}
