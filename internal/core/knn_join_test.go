package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// bruteKNN returns the k nearest MBRs by exhaustive scan.
func bruteKNN(entries []spatial.Entry, q geom.Point, k int) []Neighbor {
	all := make([]Neighbor, len(entries))
	for i, e := range entries {
		all[i] = Neighbor{ID: e.ID, Dist: math.Sqrt(e.Rect.DistSqToPoint(q))}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestKNNMatchesBruteForce across grid sizes, k values and object sizes.
func TestKNNMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(131))
	for _, gridSize := range []int{1, 8, 32} {
		for _, maxSide := range []float64{0.001, 0.1} {
			ix, d := buildRandom(rnd, 500, maxSide, Options{NX: gridSize, NY: gridSize})
			for trial := 0; trial < 30; trial++ {
				q := geom.Point{X: rnd.Float64() * 1.1, Y: rnd.Float64() * 1.1}
				k := 1 + rnd.Intn(20)
				got := ix.KNN(q, k)
				want := bruteKNN(d.Entries, q, k)
				if len(got) != len(want) {
					t.Fatalf("grid=%d k=%d: got %d results, want %d", gridSize, k, len(got), len(want))
				}
				for i := range got {
					// Distances must match (IDs may differ on ties).
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
						t.Fatalf("grid=%d k=%d: result %d dist %v, want %v",
							gridSize, k, i, got[i].Dist, want[i].Dist)
					}
				}
				// Results must be sorted ascending and distinct.
				seen := map[spatial.ID]bool{}
				for i := range got {
					if i > 0 && got[i].Dist < got[i-1].Dist {
						t.Fatal("kNN results not sorted")
					}
					if seen[got[i].ID] {
						t.Fatalf("duplicate neighbor %d", got[i].ID)
					}
					seen[got[i].ID] = true
				}
			}
		}
	}
}

// TestKNNOutsideSpace: a query point outside the space gets the
// brute-force answer, on a built index and after deletes and inserts
// sticking out of the space, which the index's extent follows. On the
// built index, where objects lie evenly in the space, it reads at most
// 10x the tiles a point inside reads.
func TestKNNOutsideSpace(t *testing.T) {
	rnd := rand.New(rand.NewSource(137))
	ix, d := buildRandom(rnd, 20000, 0.005, Options{NX: 128, NY: 128, Space: geom.Rect{MaxX: 1, MaxY: 1}})
	tiles := func(q geom.Point) int64 {
		var st Stats
		ix.View(&st).KNN(q, 10)
		return st.TilesVisited
	}
	outside := []geom.Point{{X: 1.2, Y: 0.5}, {X: -0.3, Y: 1.4}, {X: 0.5, Y: -0.2}, {X: 3, Y: -2}}
	inside := tiles(geom.Point{X: 0.5, Y: 0.5})
	for _, q := range outside {
		sameDists(t, fmt.Sprintf("built q=%v", q), ix.KNN(q, 10), bruteKNN(d.Entries, q, 10))
		if got := tiles(q); got > 10*inside {
			t.Errorf("q=%v visited %d tiles, a point inside %d", q, got, inside)
		}
	}

	entries := append([]spatial.Entry(nil), d.Entries[100:]...)
	for i := range 100 {
		ix.Delete(d.Entries[i].ID, d.Entries[i].Rect)
	}
	for i := range 40 {
		x, y := 0.98+rnd.Float64()*0.02, rnd.Float64()
		e := spatial.Entry{ID: spatial.ID(len(d.Entries) + i), Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.06, MaxY: y + 0.01}}
		ix.Insert(e)
		entries = append(entries, e)
	}
	for _, q := range outside {
		for _, k := range []int{1, 10, 60} {
			sameDists(t, fmt.Sprintf("updated q=%v k=%d", q, k), ix.KNN(q, k), bruteKNN(entries, q, k))
		}
	}
}

// TestKNNEdgeCases: k <= 0, k > n, empty index, repeated queries on one
// index.
func TestKNNEdgeCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(132))
	empty := New(Options{NX: 4, NY: 4})
	if got := empty.KNN(geom.Point{X: 0.5, Y: 0.5}, 3); got != nil {
		t.Error("empty index should return nil")
	}
	ix, d := buildRandom(rnd, 50, 0.05, Options{NX: 8, NY: 8})
	if got := ix.KNN(geom.Point{X: 0.5, Y: 0.5}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := ix.KNN(geom.Point{X: 0.5, Y: 0.5}, 100); len(got) != d.Len() {
		t.Errorf("k>n returned %d of %d", len(got), d.Len())
	}
	// Many repeated queries on one index: kNN keeps no state between them.
	for i := 0; i < 200; i++ {
		q := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
		got := ix.KNN(q, 5)
		want := bruteKNN(d.Entries, q, 5)
		for j := range got {
			if math.Abs(got[j].Dist-want[j].Dist) > 1e-12 {
				t.Fatalf("iteration %d: dist mismatch", i)
			}
		}
	}
}

// bruteJoin counts intersecting pairs by nested loop.
func bruteJoin(a, b []spatial.Entry) int {
	n := 0
	for i := range a {
		for j := range b {
			if a[i].Rect.Intersects(b[j].Rect) {
				n++
			}
		}
	}
	return n
}

// TestJoinMatchesBruteForce: the class-combination join equals the nested
// loop, with every pair produced exactly once.
func TestJoinMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(133))
	space := geom.Rect{MaxX: 1.3, MaxY: 1.3}
	for _, gridSize := range []int{1, 4, 16, 64} {
		for _, maxSide := range []float64{0.01, 0.1, 0.4} {
			ra := randRects(rnd, 300, maxSide)
			rb := randRects(rnd, 300, maxSide)
			a := Build(spatial.NewDataset(ra), Options{NX: gridSize, NY: gridSize, Space: space})
			b := Build(spatial.NewDataset(rb), Options{NX: gridSize, NY: gridSize, Space: space})

			seen := map[[2]spatial.ID]bool{}
			a.Join(b, func(r, s spatial.Entry) {
				key := [2]spatial.ID{r.ID, s.ID}
				if seen[key] {
					t.Fatalf("grid=%d side=%g: duplicate pair %v", gridSize, maxSide, key)
				}
				seen[key] = true
				if !r.Rect.Intersects(s.Rect) {
					t.Fatalf("non-intersecting pair reported: %v %v", r.Rect, s.Rect)
				}
			})
			want := bruteJoin(a.datasetEntries(), b.datasetEntries())
			if len(seen) != want {
				t.Fatalf("grid=%d side=%g: join found %d pairs, want %d",
					gridSize, maxSide, len(seen), want)
			}
		}
	}
}

// datasetEntries exposes the build entries for test verification.
func (ix *Index) datasetEntries() []spatial.Entry { return ix.dataset.Entries }

// TestJoinPanicsOnMismatch: grid compatibility is enforced.
func TestJoinPanicsOnMismatch(t *testing.T) {
	rnd := rand.New(rand.NewSource(134))
	space := geom.Rect{MaxX: 1.2, MaxY: 1.2}
	a := Build(spatial.NewDataset(randRects(rnd, 10, 0.1)), Options{NX: 4, NY: 4, Space: space})
	b := Build(spatial.NewDataset(randRects(rnd, 10, 0.1)), Options{NX: 8, NY: 8, Space: space})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched grids")
		}
	}()
	a.Join(b, func(_, _ spatial.Entry) {})
}

// TestJoinSelfPanics: self-join via the same instance is rejected.
func TestJoinSelfPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(135))
	a := Build(spatial.NewDataset(randRects(rnd, 10, 0.1)), Options{NX: 4, NY: 4})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for self-join")
		}
	}()
	a.Join(a, func(_, _ spatial.Entry) {})
}

// TestJoinCount and empty-side joins.
func TestJoinCount(t *testing.T) {
	rnd := rand.New(rand.NewSource(136))
	space := geom.Rect{MaxX: 1.2, MaxY: 1.2}
	a := Build(spatial.NewDataset(randRects(rnd, 100, 0.1)), Options{NX: 8, NY: 8, Space: space})
	empty := Build(spatial.NewDataset(nil), Options{NX: 8, NY: 8, Space: space})
	if n := a.JoinCount(empty); n != 0 {
		t.Errorf("join with empty = %d", n)
	}
	b := Build(spatial.NewDataset(randRects(rnd, 100, 0.1)), Options{NX: 8, NY: 8, Space: space})
	if n := a.JoinCount(b); n != bruteJoin(a.dataset.Entries, b.dataset.Entries) {
		t.Errorf("JoinCount mismatch")
	}
}

// TestSweep directly: sorted-list plane sweep equals nested loop.
func TestSweep(t *testing.T) {
	rnd := rand.New(rand.NewSource(137))
	for trial := 0; trial < 50; trial++ {
		ra := randRects(rnd, 30, 0.3)
		rb := randRects(rnd, 30, 0.3)
		a := sortByMinX(spatial.NewDataset(ra).Entries)
		b := sortByMinX(spatial.NewDataset(rb).Entries)
		got := 0
		sweep(a, b, func(r, s spatial.Entry) {
			if !r.Rect.Intersects(s.Rect) {
				t.Fatal("sweep reported non-intersecting pair")
			}
			got++
		})
		if want := bruteJoin(a, b); got != want {
			t.Fatalf("sweep found %d, want %d", got, want)
		}
	}
}
