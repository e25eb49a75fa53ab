package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestConcurrentReaders: the index promises safety for concurrent readers
// (no Stats attached). Run mixed window/disk queries from many goroutines;
// `go test -race` verifies the absence of data races.
func TestConcurrentReaders(t *testing.T) {
	rnd := rand.New(rand.NewSource(121))
	ix, d := buildRandom(rnd, 2000, 0.05, Options{NX: 32, NY: 32, Decompose: true})

	// Pre-generate per-goroutine workloads (rand.Rand is not
	// goroutine-safe).
	const workers = 8
	type job struct {
		w    geom.Rect
		c    geom.Point
		r    float64
		want int
	}
	jobs := make([][]job, workers)
	for g := range jobs {
		for q := 0; q < 25; q++ {
			w := randWindow(rnd, 0.3)
			c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
			radius := rnd.Float64() * 0.2
			jobs[g] = append(jobs[g], job{
				w: w, c: c, r: radius,
				want: len(spatial.BruteWindow(d.Entries, w)),
			})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, j := range jobs[g] {
				if got := ix.WindowCount(j.w); got != j.want {
					errs <- "window count mismatch under concurrency"
					return
				}
				ix.DiskCount(j.c, j.r)
				w := j.w
				_, _ = ix.Search(Query{Window: &w, Exact: true, Mode: RefineAvoidPlus}, func(spatial.Entry) bool { return true })
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBatchParallelRace: tiles-based parallel batch under the race
// detector, with a callback that is itself concurrent-safe.
func TestBatchParallelRace(t *testing.T) {
	rnd := rand.New(rand.NewSource(122))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 16, NY: 16})
	queries := make([]geom.Rect, 300)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.2)
	}
	a := ix.BatchWindowCounts(queries, TilesBased, 8)
	b := ix.BatchWindowCounts(queries, QueriesBased, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: %d != %d", i, a[i], b[i])
		}
	}
}
