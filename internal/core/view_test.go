package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestViewConcurrentStats checks the engine's always-on query totals
// against per-goroutine views: 8 goroutines run windows, disks, counts,
// batches and kNN on views with private Stats, and the engine total
// must move by exactly the sum of the views' Stats. On a Live index the
// total carries over three publishes: views of every snapshot feed it.
// Run with -race: the total takes one atomic add per counter, no lock.
func TestViewConcurrentStats(t *testing.T) {
	ix, _ := buildRandom(rand.New(rand.NewSource(7)), 4000, 0.05, Options{NX: 64, NY: 64, Space: unitSquare})
	t.Run("index", func(t *testing.T) {
		before := ix.QueryStats()
		sum := concurrentViewQueries(ix, 1)
		if got := statsDelta(before, ix.QueryStats()); got != sum {
			t.Errorf("engine total moved by %+v, views sum to %+v", got, sum)
		}
		if sum.Queries != 8*mixedQueriesPerRun || sum.Results == 0 {
			t.Errorf("views counted %d queries and %d results, want %d queries", sum.Queries, sum.Results, 8*mixedQueriesPerRun)
		}
	})
	t.Run("live", func(t *testing.T) {
		l := NewLive(ix.CloneCOW(), LiveOptions{})
		defer l.Close()
		before := l.Snapshot().QueryStats()
		var sum Stats
		for round := 0; round < 3; round++ {
			if _, err := l.Insert(spatial.Entry{ID: spatial.ID(10000 + round),
				Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51}}); err != nil {
				t.Fatal(err)
			}
			views := concurrentViewQueries(l.Snapshot(), int64(round))
			sum.Add(&views)
		}
		if got := statsDelta(before, l.Snapshot().QueryStats()); got != sum {
			t.Errorf("engine total over three publishes moved by %+v, views sum to %+v", got, sum)
		}
		if sum.Queries != 3*8*mixedQueriesPerRun {
			t.Errorf("views counted %d queries, want %d", sum.Queries, 3*8*mixedQueriesPerRun)
		}
	})
}

// mixedQueriesPerRun is how many queries mixedQueries runs: a batch
// counts as one.
const mixedQueriesPerRun = 8

// mixedQueries runs one of every query kind on ix: a streamed window and
// disk, their counts, a SearchCount, a window and a disk batch, and kNN.
func mixedQueries(ix *Index, rnd *rand.Rand) {
	w := randWindow(rnd, 0.3)
	d := geom.Disk{Center: geom.Point{X: rnd.Float64(), Y: rnd.Float64()}, Radius: rnd.Float64() * 0.2}
	ix.Window(w, func(spatial.Entry) {})
	ix.Disk(d.Center, d.Radius, func(spatial.Entry) {})
	ix.WindowCount(w)
	ix.DiskCount(d.Center, d.Radius)
	ix.SearchCount(Query{Window: &w, Limit: 5})
	ix.BatchWindowCounts([]geom.Rect{w, randWindow(rnd, 0.2)}, TilesBased, 2)
	ix.BatchDiskCounts([]geom.Disk{d}, QueriesBased, 2)
	ix.KNN(d.Center, 10)
}

// concurrentViewQueries runs mixedQueries from 8 goroutines, each on
// views of ix with a Stats of its own, and returns the sum of their
// Stats.
func concurrentViewQueries(ix *Index, seed int64) Stats {
	const workers = 8
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mixedQueries(ix.View(&stats[w]), rand.New(rand.NewSource(seed*workers+int64(w))))
		}()
	}
	wg.Wait()
	var sum Stats
	for w := range stats {
		sum.Add(&stats[w])
	}
	return sum
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
