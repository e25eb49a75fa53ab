// Spatial join: which land parcels does each road segment cross?
//
// The classic GIS overlay workload joins two non-point datasets — here a
// road network against land parcels. Both datasets are indexed on the
// same two-layer grid; the class combinations of the join produce every
// intersecting pair exactly once, with no duplicate elimination, which is
// the extension of the paper's duplicate-avoidance idea to joins (its
// stated future work). A nested R-tree-style approach is emulated for
// comparison by probing one index with the other's MBRs.
package main

import (
	"fmt"
	"math/rand"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

func main() {
	rnd := rand.New(rand.NewSource(5))
	const gridSize = 512
	space := twolayer.Rect{MaxX: 1, MaxY: 1}

	// Land parcels: a dense mosaic of small rectangles.
	parcels := make([]twolayer.Rect, 1_000_000)
	for i := range parcels {
		x, y := rnd.Float64(), rnd.Float64()
		parcels[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.0008, MaxY: y + 0.0008}
	}

	// Road segments: longer, thinner boxes.
	roads := make([]twolayer.Rect, 200_000)
	for i := range roads {
		x, y := rnd.Float64(), rnd.Float64()
		if rnd.Intn(2) == 0 {
			roads[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.004, MaxY: y + 0.0003}
		} else {
			roads[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.0003, MaxY: y + 0.004}
		}
	}

	opts := twolayer.Options{GridSize: gridSize, Space: space}
	fmt.Println("indexing both datasets on a shared grid...")
	parcelIdx := twolayer.BuildRects(parcels, opts)
	roadIdx := twolayer.BuildRects(roads, opts)

	// Grid join with class-based duplicate avoidance.
	start := time.Now()
	pairs := 0
	// Join refuses (ErrGridMismatch) indices built over different grids.
	if err := roadIdx.Join(parcelIdx, func(road, parcel twolayer.ID) { pairs++ }); err != nil {
		panic(err)
	}
	joinTime := time.Since(start)
	fmt.Printf("two-layer grid join:   %9d pairs in %v\n", pairs, joinTime)

	// Baseline: probe the parcel index once per road (index nested loop).
	start = time.Now()
	probePairs := 0
	for _, r := range roads {
		n, _ := parcelIdx.SearchCount(twolayer.Query{Window: &r}) // a valid window cannot fail
		probePairs += n
	}
	probeTime := time.Since(start)
	fmt.Printf("index nested loop:     %9d pairs in %v (%.1fx slower)\n",
		probePairs, probeTime, probeTime.Seconds()/joinTime.Seconds())

	if pairs != probePairs {
		panic("join results disagree")
	}

	// A local analytics question on top of the join: the parcel touched
	// by the most roads.
	counts := make(map[twolayer.ID]int)
	if err := roadIdx.Join(parcelIdx, func(_, parcel twolayer.ID) { counts[parcel]++ }); err != nil {
		panic(err)
	}
	bestParcel, bestCount := twolayer.ID(0), 0
	for id, c := range counts {
		if c > bestCount {
			bestParcel, bestCount = id, c
		}
	}
	fmt.Printf("busiest parcel: id=%d crossed by %d roads at %v\n",
		bestParcel, bestCount, parcels[bestParcel])

	// And a kNN lookup: the five parcels nearest to a depot.
	depot := twolayer.Point{X: 0.42, Y: 0.58}
	for _, n := range parcelIdx.KNN(depot, 5) {
		fmt.Printf("near depot: parcel %d at distance %.5f\n", n.ID, n.Dist)
	}
}
