// GIS scenario: index a road network (linestrings) and answer exact
// range queries with the secondary filter, the workload that motivates
// the paper's refinement-step optimization (Section V).
//
// The example builds a synthetic road network: long, thin polylines
// clustered around "towns". It then compares the three refinement modes
// on the same query workload and reports how many exact geometry tests
// each one needed.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// town is a population center roads cluster around.
type town struct{ x, y, spread float64 }

func makeRoadNetwork(rnd *rand.Rand, nRoads int) []twolayer.Geometry {
	towns := make([]town, 40)
	for i := range towns {
		towns[i] = town{x: rnd.Float64(), y: rnd.Float64(), spread: 0.01 + rnd.Float64()*0.05}
	}
	roads := make([]twolayer.Geometry, nRoads)
	for i := range roads {
		t := towns[rnd.Intn(len(towns))]
		// A road is a 3-6 vertex polyline meandering out of its town.
		n := 3 + rnd.Intn(4)
		pts := make([]twolayer.Point, n)
		x := t.x + rnd.NormFloat64()*t.spread
		y := t.y + rnd.NormFloat64()*t.spread
		heading := rnd.Float64() * 2 * math.Pi
		for j := range pts {
			pts[j] = twolayer.Point{X: clamp01(x), Y: clamp01(y)}
			heading += rnd.NormFloat64() * 0.5 // gentle curves
			step := 0.001 + rnd.Float64()*0.004
			x += math.Cos(heading) * step
			y += math.Sin(heading) * step
		}
		roads[i] = twolayer.NewLineString(pts...)
	}
	return roads
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

func main() {
	rnd := rand.New(rand.NewSource(7))
	fmt.Println("building road network...")
	roads := makeRoadNetwork(rnd, 500_000)
	idx := twolayer.BuildGeoms(roads, twolayer.Options{GridSize: 512})
	fmt.Printf("indexed %d roads\n", idx.Len())

	// Query workload: "which roads cross this map viewport?"
	viewports := make([]twolayer.Rect, 2000)
	for i := range viewports {
		x, y := rnd.Float64()*0.95, rnd.Float64()*0.95
		viewports[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.03}
	}

	for _, mode := range []twolayer.RefineMode{
		twolayer.RefineSimple, twolayer.RefineAvoid, twolayer.RefineAvoidPlus,
	} {
		view, stats := idx.Instrumented()
		start := time.Now()
		results := 0
		for _, w := range viewports {
			// SearchCount fails only on an invalid descriptor or an exact
			// query without geometries, neither possible here.
			n, _ := view.SearchCount(twolayer.Query{Window: &w, Exact: true, Mode: mode})
			results += n
		}
		elapsed := time.Since(start)
		fmt.Printf("%-9s %8d results  %8d exact tests  %8d filter hits  %v\n",
			mode, results, stats.RefinementTests, stats.SecondaryFilterHits, elapsed)
	}

	// Proximity search: all roads within 500m (~0.005) of an incident.
	incident := twolayer.Point{X: 0.5, Y: 0.5}
	n, _ := idx.SearchCount(twolayer.Query{
		Disk:  &twolayer.Disk{Center: incident, Radius: 0.005},
		Exact: true,
		Mode:  twolayer.RefineAvoid,
	})
	fmt.Printf("roads within 0.005 of %v: %d\n", incident, n)
}
