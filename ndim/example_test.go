package ndim_test

import (
	"fmt"
	"math/rand"

	"github.com/twolayer/twolayer/ndim"
)

// Spatio-temporal indexing: vehicle trajectory segments as 3D boxes (x,
// y, time). "Which vehicles passed through this neighborhood during this
// hour?" is a 3D window query, and the 2^3 = 8 secondary classes avoid
// duplicate results exactly as the four classes do in the plane
// (Section IV-D of the paper).
func Example_spacetime() {
	rnd := rand.New(rand.NewSource(12))

	// One day of trajectories, normalized: space in [0,1]^2, time in
	// [0,1]. A segment spans a small spatial step over a short time slice.
	entries := make([]ndim.Entry, 20_000)
	for i := range entries {
		x, y, t := rnd.Float64(), rnd.Float64(), rnd.Float64()
		dx, dy, dt := rnd.Float64()*0.02, rnd.Float64()*0.02, rnd.Float64()*0.005
		entries[i] = ndim.Entry{
			Box: ndim.Box(
				[]float64{x, y, t},
				[]float64{min(1, x+dx), min(1, y+dy), min(1, t+dt)},
			),
			ID: uint32(i),
		}
	}
	space := ndim.Box([]float64{0, 0, 0}, []float64{1, 1, 1})
	idx, err := ndim.Build(entries, ndim.Options{Space: space, Tiles: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("indexed %d trajectory segments in %d dimensions\n", idx.Len(), idx.Dims())

	// A neighborhood, 20% of space per axis, swept across the day four
	// hours at a time, one hour per window.
	fmt.Println("hourly activity in the neighborhood:")
	for h := 0; h < 24; h += 4 {
		t0 := float64(h) / 24
		q := ndim.Box([]float64{0.40, 0.40, t0}, []float64{0.60, 0.60, t0 + 1.0/24})
		n, err := idx.WindowCount(q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %02d:00-%02d:00  %d segments\n", h, h+1, n)
	}

	// A spatio-temporal ball: everything within a combined space-time
	// distance of an incident (useful when time is scaled to comparable
	// units, e.g. "within ~500m and ~10 minutes").
	nearby, err := idx.BallCount([]float64{0.42, 0.58, 0.5}, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Printf("segments within 0.05 space-time distance of the incident: %d\n", nearby)
	// Output:
	// indexed 20000 trajectory segments in 3 dimensions
	// hourly activity in the neighborhood:
	//   00:00-01:00  35 segments
	//   04:00-05:00  34 segments
	//   08:00-09:00  33 segments
	//   12:00-13:00  35 segments
	//   16:00-17:00  40 segments
	//   20:00-21:00  52 segments
	// segments within 0.05 space-time distance of the incident: 10
}
