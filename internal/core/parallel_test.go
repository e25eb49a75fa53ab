package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestJoinParallelMatchesSerial.
func TestJoinParallelMatchesSerial(t *testing.T) {
	rnd := rand.New(rand.NewSource(212))
	space := geom.Rect{MaxX: 1.2, MaxY: 1.2}
	a := Build(spatial.NewDataset(randRects(rnd, 500, 0.1)), Options{NX: 16, NY: 16, Space: space})
	b := Build(spatial.NewDataset(randRects(rnd, 500, 0.1)), Options{NX: 16, NY: 16, Space: space})
	want := a.JoinCount(b)
	for _, threads := range []int{1, 3, 0} {
		var got atomic.Int64
		a.JoinParallel(b, threads, func(_, _ spatial.Entry) { got.Add(1) })
		if int(got.Load()) != want {
			t.Fatalf("threads=%d: %d pairs, want %d", threads, got.Load(), want)
		}
	}
	// Pair-level equality, not just counts.
	type pair [2]spatial.ID
	serial := map[pair]bool{}
	a.Join(b, func(r, s spatial.Entry) { serial[pair{r.ID, s.ID}] = true })
	var mu sync.Mutex
	parallel := map[pair]bool{}
	a.JoinParallel(b, 4, func(r, s spatial.Entry) {
		mu.Lock()
		parallel[pair{r.ID, s.ID}] = true
		mu.Unlock()
	})
	if len(serial) != len(parallel) {
		t.Fatalf("pair sets differ: %d vs %d", len(serial), len(parallel))
	}
	for p := range serial {
		if !parallel[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
}

// TestWindowUntilAndIntersects: a window Search stops when its callback
// says so, and a Limit of 1 is an existence test (incomplete exactly
// when some MBR intersects the window).
func TestWindowUntilAndIntersects(t *testing.T) {
	rnd := rand.New(rand.NewSource(214))
	ix, d := buildRandom(rnd, 1000, 0.05, Options{NX: 16, NY: 16})
	count := func(w geom.Rect, limit int, fn func(n int) bool) (n int, complete bool) {
		complete, err := ix.Search(Query{Window: &w, Limit: limit}, func(spatial.Entry) bool {
			n++
			return fn(n)
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, complete
	}
	always := func(int) bool { return true }

	// Stop after 5 results.
	if n, completed := count(geom.Rect{MaxX: 1, MaxY: 1}, 0, func(n int) bool { return n < 5 }); completed || n != 5 {
		t.Fatalf("completed=%v n=%d", completed, n)
	}
	// Running to completion visits everything.
	if n, completed := count(geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}, 0, always); !completed || n != d.Len() {
		t.Fatalf("completed=%v n=%d want %d", completed, n, d.Len())
	}

	if n, complete := count(geom.Rect{MaxX: 1, MaxY: 1}, 1, always); complete || n != 1 {
		t.Errorf("Limit 1 on a populated window: complete=%v n=%d", complete, n)
	}
	if n, complete := count(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 1, always); !complete || n != 0 {
		t.Errorf("Limit 1 on an empty window: complete=%v n=%d", complete, n)
	}
}
