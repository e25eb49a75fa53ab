package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestViewConcurrentStats checks the concurrent stats mode: queries on
// per-goroutine views with private Stats, merged into one AtomicStats,
// must produce exactly the counters of the same queries run serially
// through one view. Run with -race to exercise the safety claim.
func TestViewConcurrentStats(t *testing.T) {
	ix, _ := buildRandom(rand.New(rand.NewSource(7)), 4000, 0.05, Options{NX: 64, NY: 64})

	queries := make([]geom.Rect, 64)
	for i := range queries {
		x := float64(i%8) / 8
		y := float64(i/8) / 8
		queries[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.2, MaxY: y + 0.2}
	}

	// Serial single-view reference.
	want := Stats{}
	ref := ix.View(&want)
	serialResults := 0
	for _, q := range queries {
		serialResults += ref.WindowCount(q)
	}

	var agg AtomicStats
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				s := &Stats{}
				view := ix.View(s)
				view.WindowCount(queries[i])
				agg.Observe(s)
			}
		}(w)
	}
	wg.Wait()

	got := agg.Snapshot()
	if got != want {
		t.Errorf("concurrent view stats = %+v, want %+v", got, want)
	}
	if agg.Queries() != int64(len(queries)) {
		t.Errorf("Queries() = %d, want %d", agg.Queries(), len(queries))
	}
	if got.Results != int64(serialResults) {
		t.Errorf("stats results %d != serial result count %d", got.Results, serialResults)
	}
}

// TestViewConcurrentKNN checks that KNN and KNNExact keep no state on
// the index: 8 goroutines querying one shared index, with no View, get
// the serial answers. Run with -race to exercise the safety claim.
func TestViewConcurrentKNN(t *testing.T) {
	ix := Build(spatial.NewGeomDataset(randGeoms(rand.New(rand.NewSource(11)), 2000, 0.05)), Options{NX: 32, NY: 24})

	points := make([]geom.Point, 32)
	for i := range points {
		points[i] = geom.Point{X: float64(i%8) / 8, Y: float64(i/8) / 4}
	}
	for _, knn := range []struct {
		name string
		fn   func(geom.Point, int) []Neighbor
	}{{"KNN", ix.KNN}, {"KNNExact", ix.KNNExact}} {
		want := make([][]Neighbor, len(points))
		for i, p := range points {
			want[i] = knn.fn(p, 10)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(points); i += 8 {
					got := knn.fn(points[i], 10)
					if len(got) != len(want[i]) {
						t.Errorf("%s point %d: got %d neighbors, want %d", knn.name, i, len(got), len(want[i]))
						return
					}
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("%s point %d neighbor %d: %v != %v", knn.name, i, j, got[j], want[i][j])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
