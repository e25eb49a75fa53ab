package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// randGeoms draws a mix of polygons, linestrings and rectangles, each
// confined to a random box of side up to maxSide.
func randGeoms(rnd *rand.Rand, n int, maxSide float64) []geom.Geometry {
	out := make([]geom.Geometry, n)
	for i := range out {
		x := rnd.Float64()
		y := rnd.Float64()
		s := 0.2*maxSide + rnd.Float64()*0.8*maxSide
		switch rnd.Intn(3) {
		case 0: // triangle
			out[i] = geom.NewPolygon(
				geom.Point{X: x, Y: y},
				geom.Point{X: x + s, Y: y + 0.2*s},
				geom.Point{X: x + 0.3*s, Y: y + s},
			)
		case 1: // zig-zag linestring
			out[i] = geom.NewLineString(
				geom.Point{X: x, Y: y},
				geom.Point{X: x + 0.5*s, Y: y + s},
				geom.Point{X: x + s, Y: y + 0.2*s},
			)
		default: // plain rectangle
			out[i] = geom.RectGeometry(geom.Rect{MinX: x, MinY: y, MaxX: x + s, MaxY: y + s})
		}
	}
	return out
}

// TestWindowExactAllModes: all three refinement modes must return exactly
// the set of objects whose exact geometry intersects the window.
func TestWindowExactAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(51))
	d := spatial.NewGeomDataset(randGeoms(rnd, 500, 0.1))
	for _, dec := range []bool{false, true} {
		ix := Build(d, Options{NX: 16, NY: 16, Decompose: dec})
		for q := 0; q < 50; q++ {
			w := randWindow(rnd, 0.3)
			want := spatial.BruteWindowExact(d, w)
			for _, mode := range []RefineMode{RefineSimple, RefineAvoid, RefineAvoidPlus} {
				got := searchIDs(ix, Query{Window: &w, Exact: true, Mode: mode})
				noDuplicates(t, got, mode.String())
				sameIDs(t, got, want, "window exact "+mode.String())
			}
		}
	}
}

// TestDiskExactModes: disk refinement modes must agree with brute force.
func TestDiskExactModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(52))
	d := spatial.NewGeomDataset(randGeoms(rnd, 400, 0.1))
	ix := Build(d, Options{NX: 16, NY: 16})
	for q := 0; q < 50; q++ {
		c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
		radius := rnd.Float64() * 0.25
		want := spatial.BruteDiskExact(d, c, radius)
		for _, mode := range []RefineMode{RefineSimple, RefineAvoid} {
			got := searchIDs(ix, Query{Disk: &geom.Disk{Center: c, Radius: radius}, Exact: true, Mode: mode})
			noDuplicates(t, got, "disk exact")
			sameIDs(t, got, want, "disk exact "+mode.String())
		}
	}
}

// TestRefAvoidReducesRefinements reproduces the paper's Figure 6 claim
// qualitatively: the Lemma 5 secondary filter eliminates the bulk of
// refinement tests for window queries on small objects.
func TestRefAvoidReducesRefinements(t *testing.T) {
	rnd := rand.New(rand.NewSource(53))
	d := spatial.NewGeomDataset(randGeoms(rnd, 3000, 0.01))
	ix := Build(d, Options{NX: 32, NY: 32})
	ix.stats = &Stats{}

	queries := make([]geom.Rect, 50)
	for i := range queries {
		x, y := rnd.Float64()*0.8, rnd.Float64()*0.8
		queries[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.15, MaxY: y + 0.15}
	}

	run := func(mode RefineMode) (refines, hits int64) {
		ix.stats.Reset()
		for _, w := range queries {
			searchIDs(ix, Query{Window: &w, Exact: true, Mode: mode})
		}
		return ix.stats.RefinementTests, ix.stats.SecondaryFilterHits
	}

	simpleRefines, _ := run(RefineSimple)
	avoidRefines, avoidHits := run(RefineAvoid)
	plusRefines, plusHits := run(RefineAvoidPlus)

	if avoidHits == 0 || plusHits == 0 {
		t.Fatal("secondary filter never fired")
	}
	// The paper reports >90% of candidates skip refinement; small objects
	// inside a much larger window are nearly always covered in one
	// dimension, so assert a strong reduction.
	if avoidRefines*2 > simpleRefines {
		t.Errorf("RefAvoid refinements %d not below half of Simple %d", avoidRefines, simpleRefines)
	}
	if plusRefines != avoidRefines {
		t.Errorf("RefAvoid+ refinements %d differ from RefAvoid %d (must accept the same set)",
			plusRefines, avoidRefines)
	}
}

// TestRefAvoidPlusSavesComparisons: RefAvoid+ must execute fewer secondary
// filter coordinate comparisons than RefAvoid; we proxy by checking it
// never does more work (same hits, same refinements) and that class
// knowledge holds: every secondary-filter hit is a true result.
func TestSecondaryFilterSoundness(t *testing.T) {
	rnd := rand.New(rand.NewSource(54))
	d := spatial.NewGeomDataset(randGeoms(rnd, 800, 0.05))
	ix := Build(d, Options{NX: 16, NY: 16})
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.25)
		for _, id := range searchIDs(ix, Query{Window: &w, Exact: true, Mode: RefineAvoidPlus}) {
			if !d.Geom(id).IntersectsRect(w) {
				t.Fatalf("object %d reported but does not intersect %v", id, w)
			}
		}
	}
}

// TestWindowExactRequiresDataset documents the API contract: an exact
// query on an index without a dataset is an error, streamed or counted.
func TestWindowExactRequiresDataset(t *testing.T) {
	ix := New(Options{})
	q := Query{Window: &geom.Rect{MaxX: 1, MaxY: 1}, Exact: true}
	if _, err := ix.Search(q, func(spatial.Entry) bool { return true }); !errors.Is(err, errExactNeedsDataset) {
		t.Errorf("Search err = %v, want errExactNeedsDataset", err)
	}
	if _, err := ix.SearchCount(q); !errors.Is(err, errExactNeedsDataset) {
		t.Errorf("SearchCount err = %v, want errExactNeedsDataset", err)
	}
}

// TestRefineModeString covers the Stringer.
func TestRefineModeString(t *testing.T) {
	if RefineSimple.String() != "Simple" || RefineAvoid.String() != "RefAvoid" ||
		RefineAvoidPlus.String() != "RefAvoid+" || RefineMode(9).String() != "RefineMode(?)" {
		t.Error("RefineMode.String wrong")
	}
}
