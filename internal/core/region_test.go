package core

import (
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// bruteRegion scans all entries against the region predicate.
func bruteRegion(entries []spatial.Entry, region Region) []spatial.ID {
	var out []spatial.ID
	for _, e := range entries {
		if region.IntersectsRect(e.Rect) {
			out = append(out, e.ID)
		}
	}
	return out
}

// TestRegionDiskEqualsDiskQuery: running a disk through the generic
// region path must match the specialized Disk method.
func TestRegionDiskEqualsDiskQuery(t *testing.T) {
	rnd := rand.New(rand.NewSource(171))
	ix, _ := buildRandom(rnd, 1000, 0.08, Options{NX: 16, NY: 16})
	for q := 0; q < 60; q++ {
		d := geom.Disk{
			Center: geom.Point{X: rnd.Float64(), Y: rnd.Float64()},
			Radius: rnd.Float64() * 0.3,
		}
		got := searchIDs(ix, Query{Region: d})
		noDuplicates(t, got, "region disk")
		sameIDs(t, got, diskIDs(ix, d.Center, d.Radius), "region vs disk")
	}
}

// uPolygon returns a U-shaped (non-convex) polygon whose tile cover has
// holes and split column runs — the case the general ownership rule must
// handle and the disk rule cannot.
func uPolygon(x, y, w, h, gap float64) *geom.Polygon {
	return geom.NewPolygon(
		geom.Point{X: x, Y: y},
		geom.Point{X: x + w, Y: y},
		geom.Point{X: x + w, Y: y + h},
		geom.Point{X: x + w - gap, Y: y + h},
		geom.Point{X: x + w - gap, Y: y + gap},
		geom.Point{X: x + gap, Y: y + gap},
		geom.Point{X: x + gap, Y: y + h},
		geom.Point{X: x, Y: y + h},
	)
}

// TestRegionPolygonMatchesBruteForce with convex and non-convex polygons
// across grid sizes and object sizes.
func TestRegionPolygonMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(172))
	for _, gridSize := range []int{1, 8, 32} {
		for _, maxSide := range []float64{0.01, 0.15, 0.5} {
			ix, d := buildRandom(rnd, 600, maxSide, Options{NX: gridSize, NY: gridSize})
			for q := 0; q < 40; q++ {
				var region Region
				if q%2 == 0 {
					// Random triangle.
					a := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
					region = geom.NewPolygon(a,
						geom.Point{X: a.X + 0.1 + rnd.Float64()*0.3, Y: a.Y + rnd.Float64()*0.1},
						geom.Point{X: a.X + rnd.Float64()*0.1, Y: a.Y + 0.1 + rnd.Float64()*0.3})
				} else {
					// Random U shape.
					region = uPolygon(rnd.Float64()*0.5, rnd.Float64()*0.5,
						0.2+rnd.Float64()*0.3, 0.2+rnd.Float64()*0.3, 0.03+rnd.Float64()*0.05)
				}
				got := searchIDs(ix, Query{Region: region})
				noDuplicates(t, got, "region polygon")
				sameIDs(t, got, bruteRegion(d.Entries, region), "region polygon")
			}
		}
	}
}

// TestRegionLargeObjectsNonConvex stresses ownership: objects spanning
// the U's gap are replicated into both prongs of the cover.
func TestRegionLargeObjectsNonConvex(t *testing.T) {
	rnd := rand.New(rand.NewSource(173))
	ix, d := buildRandom(rnd, 300, 0.6, Options{NX: 32, NY: 32})
	for q := 0; q < 60; q++ {
		region := uPolygon(rnd.Float64()*0.3, rnd.Float64()*0.3,
			0.3+rnd.Float64()*0.4, 0.3+rnd.Float64()*0.4, 0.02+rnd.Float64()*0.08)
		got := searchIDs(ix, Query{Region: region})
		noDuplicates(t, got, "non-convex large objects")
		sameIDs(t, got, bruteRegion(d.Entries, region), "non-convex large objects")
	}
}

// TestRegionCoveredTilesSkipVerification: with stats, a big covering
// polygon over fine tiles must report many results with few
// verifications... approximated by comparing scanned vs results.
func TestRegionCoveredTiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(174))
	ix, d := buildRandom(rnd, 3000, 0.005, Options{NX: 64, NY: 64})
	region := geom.NewPolygon(
		geom.Point{X: 0.1, Y: 0.1}, geom.Point{X: 0.9, Y: 0.1},
		geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.1, Y: 0.9})
	got := searchIDs(ix, Query{Region: region})
	sameIDs(t, got, bruteRegion(d.Entries, region), "covered square polygon")
}

// TestRegionOutsideSpace returns nothing.
func TestRegionOutsideSpace(t *testing.T) {
	rnd := rand.New(rand.NewSource(175))
	ix, _ := buildRandom(rnd, 100, 0.05, Options{NX: 8, NY: 8})
	far := geom.NewPolygon(
		geom.Point{X: 5, Y: 5}, geom.Point{X: 6, Y: 5}, geom.Point{X: 5, Y: 6})
	if n, _ := ix.SearchCount(Query{Region: far}); n != 0 {
		t.Errorf("far region returned %d", n)
	}
}

// TestPolygonContainsRect covers the new geometry predicate.
func TestPolygonContainsRect(t *testing.T) {
	tri := geom.NewPolygon(geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 2, Y: 4})
	if !tri.ContainsRect(geom.Rect{MinX: 1.5, MinY: 0.5, MaxX: 2.5, MaxY: 1}) {
		t.Error("interior rect should be contained")
	}
	if tri.ContainsRect(geom.Rect{MinX: -1, MinY: 0, MaxX: 1, MaxY: 1}) {
		t.Error("rect crossing the edge must not be contained")
	}
	if tri.ContainsRect(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}) {
		t.Error("outside rect must not be contained")
	}
	u := uPolygon(0, 0, 1, 1, 0.2)
	if u.ContainsRect(geom.Rect{MinX: 0.4, MinY: 0.5, MaxX: 0.6, MaxY: 0.9}) {
		t.Error("rect in the U's notch must not be contained")
	}
	if !u.ContainsRect(geom.Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.15, MaxY: 0.9}) {
		t.Error("rect inside the U's left prong should be contained")
	}
}

// TestDiskRegionPredicates covers the Disk region methods.
func TestDiskRegionPredicates(t *testing.T) {
	d := geom.Disk{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.3}
	if !d.IntersectsRect(geom.Rect{MinX: 0.7, MinY: 0.4, MaxX: 0.9, MaxY: 0.6}) {
		t.Error("rect reaching the disk should intersect")
	}
	if d.IntersectsRect(geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 1, MaxY: 1}) {
		t.Error("far corner rect must not intersect")
	}
	if !d.ContainsRect(geom.Rect{MinX: 0.45, MinY: 0.45, MaxX: 0.55, MaxY: 0.55}) {
		t.Error("small central rect should be contained")
	}
	if d.ContainsRect(geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.8, MaxY: 0.8}) {
		t.Error("big rect must not be contained")
	}
}
