package core

import (
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestDiskMatchesBruteForce cross-checks disk queries against exhaustive
// scans over many shapes of data and disks, asserting no duplicates — the
// central claim of the disk-query section.
func TestDiskMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	grids := []struct{ nx, ny int }{{1, 1}, {4, 4}, {16, 16}, {9, 17}, {64, 64}}
	for _, gr := range grids {
		for _, maxSide := range []float64{0.002, 0.05, 0.25} {
			ix, d := buildRandom(rnd, 500, maxSide, Options{NX: gr.nx, NY: gr.ny})
			for q := 0; q < 50; q++ {
				c := geom.Point{X: rnd.Float64()*1.2 - 0.1, Y: rnd.Float64()*1.2 - 0.1}
				radius := rnd.Float64() * 0.3
				got := diskIDs(ix, c, radius)
				noDuplicates(t, got, "disk")
				want := spatial.BruteDisk(d.Entries, c, radius)
				sameIDs(t, got, want, "disk vs brute force")
			}
		}
	}
}

// TestDiskLargeObjects stresses the residual-duplicate owner rule: objects
// much larger than tiles are replicated into many tiles along the disk's
// curved boundary, which is exactly where class-B/class-C double-scanning
// can occur (the paper's r1 example in Figure 5).
func TestDiskLargeObjects(t *testing.T) {
	rnd := rand.New(rand.NewSource(32))
	ix, d := buildRandom(rnd, 200, 0.6, Options{NX: 32, NY: 32})
	for q := 0; q < 100; q++ {
		c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
		radius := 0.05 + rnd.Float64()*0.4
		got := diskIDs(ix, c, radius)
		noDuplicates(t, got, "disk large objects")
		sameIDs(t, got, spatial.BruteDisk(d.Entries, c, radius), "disk large objects")
	}
}

// TestDiskEdgeCases: zero radius, disk covering everything, disk fully
// outside the space, disk sticking out of the grid.
func TestDiskEdgeCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(33))
	ix, d := buildRandom(rnd, 300, 0.1, Options{NX: 8, NY: 8})

	if n := ix.DiskCount(geom.Point{X: 5, Y: 5}, 0.5); n != 0 {
		t.Errorf("disk outside space returned %d results", n)
	}

	all := diskIDs(ix, geom.Point{X: 0.5, Y: 0.5}, 10)
	if len(all) != d.Len() {
		t.Errorf("all-covering disk returned %d of %d", len(all), d.Len())
	}
	noDuplicates(t, all, "all-covering disk")

	c := geom.Point{X: 0.5, Y: 0.5}
	got := diskIDs(ix, c, 0)
	sameIDs(t, got, spatial.BruteDisk(d.Entries, c, 0), "zero-radius disk")

	edge := geom.Point{X: -0.05, Y: 0.5} // center outside, disk overlaps space
	got = diskIDs(ix, edge, 0.2)
	noDuplicates(t, got, "edge disk")
	sameIDs(t, got, spatial.BruteDisk(d.Entries, edge, 0.2), "edge disk")
}

// TestDiskCoverGeometry checks the cover of a disk: membership matches
// per-tile disk intersection, the column query matches a scan of the
// column, and every column's cover tiles are contiguous, which is why a
// disk never needs the owner rule's same-column check.
func TestDiskCoverGeometry(t *testing.T) {
	ix := New(Options{NX: 16, NY: 16})
	rnd := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
		radius := rnd.Float64() * 0.4
		s := diskShape(c, radius)
		cv := ix.coverOf(&s)
		if cv.below == nil {
			t.Fatal("disk inside space produced an empty cover")
		}
		for ty := cv.y0; ty <= cv.y1; ty++ {
			for tx := cv.x0; tx <= cv.x1; tx++ {
				want := ix.effectiveTile(tx, ty).IntersectsDisk(c, radius)
				if got := cv.meets(tx, ty, ty); got != want {
					t.Fatalf("cover.meets(%d, %d, %d) = %v, want %v", tx, ty, ty, got, want)
				}
			}
		}
		for tx := cv.x0; tx <= cv.x1; tx++ {
			runs := 0
			for ty := cv.y0; ty <= cv.y1; ty++ {
				if cv.meets(tx, ty, ty) && !cv.meets(tx, ty-1, ty-1) {
					runs++
				}
			}
			if runs > 1 {
				t.Fatalf("column %d of the cover has %d runs", tx, runs)
			}
			a := cv.y0 + rnd.Intn(cv.y1-cv.y0+1)
			b := a + rnd.Intn(cv.y1-a+1)
			want := false
			for ty := a; ty <= b; ty++ {
				want = want || cv.meets(tx, ty, ty)
			}
			if got := cv.meets(tx, a, b); got != want {
				t.Fatalf("cover.meets(%d, %d, %d) = %v, want %v", tx, a, b, got, want)
			}
		}
	}
}

// TestDiskCoveredTilesSkipDistance: with stats enabled, a disk centered on
// the data with a large radius must report results from covered tiles
// without distance computations for them.
func TestDiskCoveredTilesSkipDistance(t *testing.T) {
	rnd := rand.New(rand.NewSource(35))
	ix, d := buildRandom(rnd, 2000, 0.01, Options{NX: 32, NY: 32})
	st := &Stats{}
	ix = ix.View(st)
	c := geom.Point{X: 0.5, Y: 0.5}
	got := diskIDs(ix, c, 0.45)
	sameIDs(t, got, spatial.BruteDisk(d.Entries, c, 0.45), "covered-tile disk")
	// A 0.45-radius disk on a 32x32 grid covers hundreds of interior
	// tiles; the distance computations must be far fewer than the number
	// of candidates scanned.
	if st.DistanceComputations >= st.EntriesScanned {
		t.Errorf("distance computed for every candidate: %d distances, %d scanned",
			st.DistanceComputations, st.EntriesScanned)
	}
	if st.Results != int64(len(got)) {
		t.Errorf("stats results %d != %d", st.Results, len(got))
	}
}

// TestDiskClassSelection: like window queries, most tiles of a disk query
// must be scanned in class A only (DuplicatesAvoided counts the skipped
// class entries).
func TestDiskClassSelection(t *testing.T) {
	rnd := rand.New(rand.NewSource(36))
	ix, _ := buildRandom(rnd, 3000, 0.08, Options{NX: 32, NY: 32})
	st := &Stats{}
	ix = ix.View(st)
	ix.DiskCount(geom.Point{X: 0.5, Y: 0.5}, 0.3)
	if st.DuplicatesAvoided == 0 {
		t.Error("disk query avoided no duplicates on replicated data")
	}
}
