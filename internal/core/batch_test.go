package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestBatchStrategiesAgree: queries-based and tiles-based must produce the
// same per-query result sets, serial and parallel, matching one-at-a-time
// evaluation.
func TestBatchStrategiesAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 16, NY: 16})

	queries := make([]geom.Rect, 200)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.2)
	}

	want := make([][]spatial.ID, len(queries))
	for i, w := range queries {
		want[i] = sortIDs(ix.WindowIDs(w, nil))
	}

	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		for _, threads := range []int{1, 4} {
			got := make([][]spatial.ID, len(queries))
			var mu sync.Mutex
			ix.BatchWindow(queries, strategy, threads, func(q int, e spatial.Entry) {
				mu.Lock()
				got[q] = append(got[q], e.ID)
				mu.Unlock()
			})
			for i := range queries {
				context := strategy.String()
				sameIDs(t, got[i], want[i], context)
			}
		}
	}
}

// TestBatchWindowCounts checks the count aggregation helper and that
// counts match brute force.
func TestBatchWindowCounts(t *testing.T) {
	rnd := rand.New(rand.NewSource(62))
	ix, d := buildRandom(rnd, 1000, 0.08, Options{NX: 8, NY: 8})
	queries := make([]geom.Rect, 60)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.3)
	}
	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		counts := ix.BatchWindowCounts(queries, strategy, 3)
		for i, w := range queries {
			if want := len(spatial.BruteWindow(d.Entries, w)); counts[i] != want {
				t.Fatalf("%v: query %d count %d, want %d", strategy, i, counts[i], want)
			}
		}
	}
}

// TestBatchEmptyInputs: no queries, and queries that miss the space.
func TestBatchEmptyInputs(t *testing.T) {
	rnd := rand.New(rand.NewSource(63))
	ix, _ := buildRandom(rnd, 100, 0.1, Options{NX: 4, NY: 4})
	if got := ix.BatchWindowCounts(nil, TilesBased, 2); len(got) != 0 {
		t.Error("nil queries should return empty counts")
	}
	miss := []geom.Rect{{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}}
	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		if got := ix.BatchWindowCounts(miss, strategy, 2); got[0] != 0 {
			t.Errorf("%v: out-of-space query returned %d", strategy, got[0])
		}
	}
}

// TestBatchStrategyString covers the Stringer.
func TestBatchStrategyString(t *testing.T) {
	if QueriesBased.String() != "queries-based" || TilesBased.String() != "tiles-based" {
		t.Error("BatchStrategy.String wrong")
	}
}

// TestBatchDefaultThreads: threads <= 0 must select DefaultThreads and still be
// correct.
func TestBatchDefaultThreads(t *testing.T) {
	rnd := rand.New(rand.NewSource(64))
	ix, d := buildRandom(rnd, 500, 0.05, Options{NX: 8, NY: 8})
	queries := []geom.Rect{randWindow(rnd, 0.4), randWindow(rnd, 0.1)}
	counts := ix.BatchWindowCounts(queries, TilesBased, 0)
	for i, w := range queries {
		if want := len(spatial.BruteWindow(d.Entries, w)); counts[i] != want {
			t.Fatalf("query %d count %d, want %d", i, counts[i], want)
		}
	}
}
