// Spatio-temporal indexing with the m-dimensional two-layer grid: vehicle
// trajectory segments as 3D boxes (x, y, time). "Which vehicles passed
// through this neighborhood during this hour?" becomes a 3D window query;
// the 2^3 = 8 secondary classes avoid duplicate results exactly as the
// four classes do in the plane (Section IV-D of the paper).
package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/twolayer/twolayer/ndim"
)

func main() {
	rnd := rand.New(rand.NewSource(12))

	// One day of trajectories, normalized: space in [0,1]^2, time in
	// [0,1] (~86s per 0.001).
	const segments = 2_000_000
	entries := make([]ndim.Entry, segments)
	for i := range entries {
		// A segment spans a small spatial step over a short time slice.
		x, y, t := rnd.Float64(), rnd.Float64(), rnd.Float64()
		dx, dy, dt := rnd.Float64()*0.002, rnd.Float64()*0.002, rnd.Float64()*0.0005
		entries[i] = ndim.Entry{
			Box: ndim.Box(
				[]float64{x, y, t},
				[]float64{min(1, x+dx), min(1, y+dy), min(1, t+dt)},
			),
			ID: uint32(i),
		}
	}

	space := ndim.Box([]float64{0, 0, 0}, []float64{1, 1, 1})
	start := time.Now()
	idx, err := ndim.Build(entries, ndim.Options{Space: space, Tiles: 64})
	if err != nil {
		panic(err)
	}
	fmt.Printf("indexed %d trajectory segments (3D) in %v\n", idx.Len(), time.Since(start))

	// A neighborhood during one hour: 5% of space per axis, ~4% of the day.
	q := ndim.Box(
		[]float64{0.40, 0.40, 0.50},
		[]float64{0.45, 0.45, 0.54},
	)
	start = time.Now()
	n, err := idx.WindowCount(q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("segments in the neighborhood during the hour: %d (%v)\n", n, time.Since(start))

	// Sweep the same neighborhood across the day, an hour at a time.
	fmt.Println("hourly activity profile:")
	for h := 0; h < 24; h += 4 {
		t0 := float64(h) / 24
		q := ndim.Box([]float64{0.40, 0.40, t0}, []float64{0.45, 0.45, t0 + 1.0/24})
		n, err := idx.WindowCount(q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %02d:00-%02d:00  %6d segments\n", h, h+1, n)
	}

	// A spatio-temporal ball: everything within a combined space-time
	// distance of an incident (useful when time is scaled to comparable
	// units, e.g. "within ~500m and ~10 minutes").
	incident := []float64{0.42, 0.58, 0.5}
	nearby, err := idx.BallCount(incident, 0.01)
	if err != nil {
		panic(err)
	}
	fmt.Printf("segments within 0.01 space-time distance of the incident: %d\n", nearby)

	// Throughput check: many random spatio-temporal probes.
	const probes = 10000
	start = time.Now()
	total := 0
	for i := 0; i < probes; i++ {
		x, y, t := rnd.Float64()*0.95, rnd.Float64()*0.95, rnd.Float64()*0.95
		q := ndim.Box([]float64{x, y, t}, []float64{x + 0.02, y + 0.02, t + 0.02})
		n, _ := idx.WindowCount(q)
		total += n
	}
	el := time.Since(start)
	fmt.Printf("%d probes in %v (%.0f queries/s, %d results)\n",
		probes, el, float64(probes)/el.Seconds(), total)
}
