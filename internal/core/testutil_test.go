package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// randRects draws n random rectangles inside the unit square with sides up
// to maxSide. Deterministic for a given seed.
func randRects(rnd *rand.Rand, n int, maxSide float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		x := rnd.Float64()
		y := rnd.Float64()
		w := rnd.Float64() * maxSide
		h := rnd.Float64() * maxSide
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return rects
}

// randWindow draws a random window, occasionally sticking out of the unit
// square to exercise clamping.
func randWindow(rnd *rand.Rand, maxSide float64) geom.Rect {
	x := rnd.Float64()*1.2 - 0.1
	y := rnd.Float64()*1.2 - 0.1
	w := rnd.Float64() * maxSide
	h := rnd.Float64() * maxSide
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// sortIDs sorts an ID slice in place and returns it.
func sortIDs(ids []spatial.ID) []spatial.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sameIDs fails the test if the two ID sets differ (after sorting).
func sameIDs(t *testing.T, got, want []spatial.ID, context string) {
	t.Helper()
	sortIDs(got)
	sortIDs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", context, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %d, want %d", context, i, got[i], want[i])
		}
	}
}

// noDuplicates fails if an ID appears more than once.
func noDuplicates(t *testing.T, ids []spatial.ID, context string) {
	t.Helper()
	seen := make(map[spatial.ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("%s: duplicate result %d", context, id)
		}
		seen[id] = true
	}
}

// withDirectory returns build(), during which New gives every grid the
// hash-map tile directory if sparse is set (and the default otherwise).
func withDirectory(sparse bool, build func() *Index) *Index {
	if sparse {
		defer func(saved int) { denseDirectoryLimit = saved }(denseDirectoryLimit)
		denseDirectoryLimit = 0
	}
	return build()
}

// buildRandom builds an index over n random rects with the given options.
func buildRandom(rnd *rand.Rand, n int, maxSide float64, opts Options) (*Index, *spatial.Dataset) {
	d := spatial.NewDataset(randRects(rnd, n, maxSide))
	return Build(d, opts), d
}

// windowIDs collects the IDs of a filtering window query through
// SearchIDs.
func windowIDs(ix *Index, w geom.Rect) []spatial.ID { return searchIDs(ix, Query{Window: &w}) }

// diskIDs collects the IDs of a filtering disk query through SearchIDs.
func diskIDs(ix *Index, c geom.Point, radius float64) []spatial.ID {
	return searchIDs(ix, Query{Disk: &geom.Disk{Center: c, Radius: radius}})
}

// searchIDs is SearchIDs for a descriptor a test knows to be valid.
func searchIDs(ix *Index, q Query) []spatial.ID {
	ids, err := ix.SearchIDs(q, nil)
	if err != nil {
		panic(err)
	}
	return ids
}

// statsDelta returns the counters that moved from before to after.
func statsDelta(before, after Stats) Stats {
	d := after
	dst, src := d.counters(), before.counters()
	for i, p := range dst {
		*p -= *src[i]
	}
	return d
}
