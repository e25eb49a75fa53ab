package core

import (
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestCorollary1 asserts the paper's Corollary 1: for a window query that
// intersects more than one tile per dimension, the number of comparisons
// per scanned rectangle in each relevant tile is at most two.
func TestCorollary1(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 16, NY: 16})
	st := &Stats{}
	ix = ix.View(st)
	space := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	_ = space
	for q := 0; q < 200; q++ {
		// Windows at least 2 tiles wide/high: side in (2/16, 6/16).
		x := rnd.Float64() * 0.6
		y := rnd.Float64() * 0.6
		side := 0.13 + rnd.Float64()*0.2
		w := geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
		ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
		if ix1 == ix0 || iy1 == iy0 {
			continue // only multi-tile-per-dimension queries
		}
		st.Reset()
		ix.WindowCount(w)
		if st.EntriesScanned > 0 && st.Comparisons > 2*st.EntriesScanned {
			t.Fatalf("window %v: %d comparisons for %d scanned entries (> 2 per entry)",
				w, st.Comparisons, st.EntriesScanned)
		}
	}
}

// TestInteriorTilesNoComparisons: tiles strictly interior to a window
// contribute zero comparisons (their class-A entries are all reported
// outright). We build a window covering a 4x4 block of tiles exactly and
// check total comparisons come only from border tiles.
func TestInteriorTilesNoComparisons(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	// Data strictly inside one interior tile so every scanned entry is in
	// the window's interior tiles.
	rects := make([]geom.Rect, 100)
	for i := range rects {
		x := 0.3 + rnd.Float64()*0.04
		y := 0.3 + rnd.Float64()*0.04
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
	}
	d := spatial.NewDataset(rects)
	unit := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	ix := Build(d, Options{NX: 8, NY: 8, Space: unit})
	st := &Stats{}
	ix = ix.View(st)
	// Window covering tiles (1..5, 1..5) fully: [0.125, 0.75].
	w := geom.Rect{MinX: 0.125, MinY: 0.125, MaxX: 0.75, MaxY: 0.75}
	n := ix.WindowCount(w)
	if n != 100 {
		t.Fatalf("expected all 100 objects, got %d", n)
	}
	if st.Comparisons != 0 {
		t.Errorf("interior-tile scan performed %d comparisons, want 0", st.Comparisons)
	}
}

// TestDuplicatesAvoidedCounting: when a window or a kNN search spans many
// tiles over replicated data, the skipped classes must be counted. A kNN
// search that visits every tile reads each replica or skips it with its
// class, and computes one distance per distinct object.
func TestDuplicatesAvoidedCounting(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	ix, _ := buildRandom(rnd, 1000, 0.2, Options{NX: 16, NY: 16})
	st := &Stats{}
	ix = ix.View(st)
	ix.WindowCount(geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9})
	if st.DuplicatesAvoided == 0 {
		t.Error("large window avoided no duplicates over replicated data")
	}

	s := Stats{}
	ix = ix.View(&s)
	ix.KNN(geom.Point{X: 0.5, Y: 0.5}, ix.Len()+1) // k > n: no ring stop
	if s.DuplicatesAvoided == 0 {
		t.Error("kNN over every tile avoided no duplicates over replicated data")
	}
	if got, want := s.EntriesScanned+s.DuplicatesAvoided, int64(ix.PartitionStats().Replicas); got != want {
		t.Errorf("kNN scanned %d + avoided %d entries, index holds %d", s.EntriesScanned, s.DuplicatesAvoided, want)
	}
	if sum := s.ClassScanned[0] + s.ClassScanned[1] + s.ClassScanned[2] + s.ClassScanned[3]; sum != s.EntriesScanned {
		t.Errorf("kNN ClassScanned sums to %d, EntriesScanned %d", sum, s.EntriesScanned)
	}
	if s.DistanceComputations != int64(ix.Len()) || s.Results != int64(ix.Len()) {
		t.Errorf("kNN computed %d distances for %d results, want %d each", s.DistanceComputations, s.Results, ix.Len())
	}
}

// TestStatsResultsMatchCallback: the Results counter equals the number of
// callback invocations on both plain and decomposed paths.
func TestStatsResultsMatchCallback(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	for _, dec := range []bool{false, true} {
		ix, _ := buildRandom(rnd, 800, 0.1, Options{NX: 16, NY: 16, Decompose: dec})
		st := &Stats{}
		ix = ix.View(st)
		for q := 0; q < 30; q++ {
			w := randWindow(rnd, 0.3)
			st.Reset()
			n := ix.WindowCount(w)
			if st.Results != int64(n) {
				t.Fatalf("dec=%v: stats results %d != callback count %d", dec, st.Results, n)
			}
		}
	}
}

// TestDecomposedBinarySearchReducesComparisons: on border tiles the
// 2-layer+ variant must perform strictly fewer per-entry comparisons than
// plain 2-layer for the same queries.
func TestDecomposedBinarySearchReducesComparisons(t *testing.T) {
	rnd := rand.New(rand.NewSource(45))
	rects := randRects(rnd, 5000, 0.02)
	plain := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8})
	dec := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8, Decompose: true})
	plain.stats = &Stats{}
	dec.stats = &Stats{}
	for q := 0; q < 50; q++ {
		w := randWindow(rnd, 0.3)
		plain.WindowCount(w)
		dec.WindowCount(w)
	}
	if dec.stats.BinarySearches == 0 {
		t.Fatal("decomposed index performed no binary searches")
	}
	if dec.stats.Comparisons >= plain.stats.Comparisons {
		t.Errorf("decomposed comparisons %d not below plain %d",
			dec.stats.Comparisons, plain.stats.Comparisons)
	}
}

// TestStatsAddReset exercises the accumulation helpers.
func TestStatsAddReset(t *testing.T) {
	a := Stats{Comparisons: 3, Results: 2, TilesVisited: 1, RefinementTests: 4}
	b := Stats{Comparisons: 5, DuplicatesAvoided: 7, SecondaryFilterHits: 2}
	a.Add(&b)
	if a.Comparisons != 8 || a.DuplicatesAvoided != 7 || a.Results != 2 || a.SecondaryFilterHits != 2 {
		t.Errorf("Add result wrong: %+v", a)
	}
	a.Reset()
	if a != (Stats{}) {
		t.Errorf("Reset left %+v", a)
	}
}
