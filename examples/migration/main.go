// Moving-object maintenance: the update workload of the paper's Table VI.
// A fleet of delivery vehicles maintains its current service areas in the
// index: the bulk of the fleet is loaded up front, then the index absorbs
// a continuous stream of area updates (delete old MBR, insert new MBR)
// interleaved with dispatcher range queries.
//
// Grid indices absorb updates orders of magnitude faster than tree
// indices because an update touches only the tiles the MBR overlaps —
// this example prints the sustained update and query rates.
package main

import (
	"fmt"
	"math/rand"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

type vehicle struct {
	id   twolayer.ID
	area twolayer.Rect
}

func serviceArea(rnd *rand.Rand, cx, cy float64) twolayer.Rect {
	w := 0.002 + rnd.Float64()*0.004
	h := 0.002 + rnd.Float64()*0.004
	return twolayer.Rect{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + h}
}

func main() {
	rnd := rand.New(rand.NewSource(42))
	const fleet = 2_000_000

	// Bulk-load 90% of the fleet (Table VI methodology), then insert the
	// remaining 10% incrementally.
	vehicles := make([]vehicle, fleet)
	rects := make([]twolayer.Rect, 0, fleet*9/10)
	for i := range vehicles {
		v := vehicle{id: twolayer.ID(i), area: serviceArea(rnd, rnd.Float64(), rnd.Float64())}
		vehicles[i] = v
		if i < fleet*9/10 {
			rects = append(rects, v.area)
		}
	}
	fmt.Println("bulk loading 90% of the fleet...")
	idx := twolayer.BuildRects(rects, twolayer.Options{
		GridSize: 1024,
		Space:    twolayer.Rect{MaxX: 1.01, MaxY: 1.01},
	})

	start := time.Now()
	for _, v := range vehicles[fleet*9/10:] {
		idx.Insert(v.id, v.area)
	}
	insertTime := time.Since(start)
	fmt.Printf("inserted last 10%% (%d objects) in %v (%.0f inserts/s)\n",
		fleet/10, insertTime, float64(fleet/10)/insertTime.Seconds())

	// Steady state: vehicles move, dispatcher queries interleave.
	const updates = 200_000
	const queryEvery = 20
	queries := 0
	start = time.Now()
	for i := 0; i < updates; i++ {
		v := &vehicles[rnd.Intn(fleet)]
		if !idx.Delete(v.id, v.area) {
			panic("vehicle missing from index")
		}
		// The vehicle drifts to a nearby position.
		c := v.area.Center()
		v.area = serviceArea(rnd,
			clamp01(c.X+rnd.NormFloat64()*0.01),
			clamp01(c.Y+rnd.NormFloat64()*0.01))
		idx.Insert(v.id, v.area)

		if i%queryEvery == 0 {
			// Dispatcher: who can serve this neighborhood right now?
			x, y := rnd.Float64(), rnd.Float64()
			idx.SearchCount(twolayer.Query{Window: &twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}})
			queries++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("steady state: %d move-updates + %d queries in %v (%.0f updates/s)\n",
		updates, queries, elapsed, float64(updates)/elapsed.Seconds())
	fmt.Printf("fleet size still consistent: %d indexed objects\n", idx.Len())
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
