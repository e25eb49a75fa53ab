package core

import (
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestDecomposedMatchesPlain is the key equivalence invariant: the
// 2-layer+ variant must return exactly the same results as plain 2-layer
// on every query.
func TestDecomposedMatchesPlain(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	// Dataset sizes chosen so that tiles hold both small partitions
	// (plain-scan fallback) and large ones (binary-search path).
	for _, tc := range []struct{ n, gridSize int }{
		{600, 1}, {600, 8}, {600, 32}, {8000, 4}, {8000, 16},
	} {
		rects := randRects(rnd, tc.n, 0.1)
		plain := Build(spatial.NewDataset(rects), Options{NX: tc.gridSize, NY: tc.gridSize})
		dec := Build(spatial.NewDataset(rects), Options{NX: tc.gridSize, NY: tc.gridSize, Decompose: true})
		if !dec.Decomposed() {
			t.Fatal("Decompose option not honored")
		}
		for q := 0; q < 80; q++ {
			w := randWindow(rnd, 0.35)
			sameIDs(t, dec.WindowIDs(w, nil), plain.WindowIDs(w, nil), "decomposed vs plain")
		}
	}
	// The dense configurations must actually exercise binary searches.
	dense := Build(spatial.NewDataset(randRects(rnd, 8000, 0.05)), Options{NX: 8, NY: 8, Decompose: true})
	dense.stats = &Stats{}
	for q := 0; q < 20; q++ {
		dense.WindowCount(randWindow(rnd, 0.3))
	}
	if dense.stats.BinarySearches == 0 {
		t.Fatal("dense decomposed index never used its sorted tables")
	}
}

// TestDecomposedMatchesBruteForce removes the dependence on the plain
// implementation.
func TestDecomposedMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	d := spatial.NewDataset(randRects(rnd, 400, 0.2))
	ix := Build(d, Options{NX: 16, NY: 16, Decompose: true})
	for q := 0; q < 60; q++ {
		w := randWindow(rnd, 0.4)
		got := ix.WindowIDs(w, nil)
		noDuplicates(t, got, "decomposed window")
		sameIDs(t, got, spatial.BruteWindow(d.Entries, w), "decomposed vs brute")
	}
}

// TestDecTableSearch checks the binary-search helpers directly.
func TestDecTableSearch(t *testing.T) {
	tab := decTable{{1, 0}, {2, 1}, {2, 2}, {5, 3}, {9, 4}}
	tests := []struct {
		v              float64
		prefix, suffix int
	}{
		{0, 0, 0},
		{1, 1, 0},
		{1.5, 1, 1},
		{2, 3, 1},
		{4, 3, 3},
		{9, 5, 4},
		{10, 5, 5},
	}
	for _, tc := range tests {
		if got := tab.prefixLE(tc.v); got != tc.prefix {
			t.Errorf("prefixLE(%v) = %d, want %d", tc.v, got, tc.prefix)
		}
		if got := tab.suffixGE(tc.v); got != tc.suffix {
			t.Errorf("suffixGE(%v) = %d, want %d", tc.v, got, tc.suffix)
		}
	}
	var empty decTable
	if empty.prefixLE(3) != 0 || empty.suffixGE(3) != 0 {
		t.Error("empty table searches should return 0")
	}
}

// TestTableIIStorage verifies that only the decomposed tables required by
// Table II of the paper are materialized per class.
func TestTableIIStorage(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	ix, _ := buildRandom(rnd, 500, 0.3, Options{NX: 8, NY: 8, Decompose: true})
	for i := 0; i < ix.numTiles; i++ {
		tl := ix.tile(i)
		if tl.dec == nil {
			t.Fatal("tile missing decomposed tables after Build with Decompose")
		}
		for c := ClassA; c <= ClassD; c++ {
			d := &tl.dec.cls[c]
			n := len(tl.classes[c])
			hasXL := c == ClassA || c == ClassB
			hasYL := c == ClassA || c == ClassC
			if got := len(d.xl); got != map[bool]int{true: n, false: 0}[hasXL] {
				t.Fatalf("class %v: xl table has %d entries for %d objects", c, got, n)
			}
			if got := len(d.yl); got != map[bool]int{true: n, false: 0}[hasYL] {
				t.Fatalf("class %v: yl table has %d entries for %d objects", c, got, n)
			}
			if len(d.xu) != n || len(d.yu) != n {
				t.Fatalf("class %v: xu/yu tables must always exist", c)
			}
			// Tables must be sorted.
			for _, tab := range []decTable{d.xl, d.xu, d.yl, d.yu} {
				for j := 1; j < len(tab); j++ {
					if tab[j].coord < tab[j-1].coord {
						t.Fatal("decomposed table not sorted")
					}
				}
			}
		}
	}
}

// TestDecomposedStaleAfterInsert: updates invalidate a tile's decomposed
// tables; queries must fall back to plain scans and stay correct, and
// BuildDecomposed must restore the tables.
func TestDecomposedStaleAfterInsert(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	rects := randRects(rnd, 300, 0.1)
	d := spatial.NewDataset(rects)
	ix := Build(d, Options{NX: 8, NY: 8, Decompose: true})

	extra := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	ix.Insert(spatial.Entry{Rect: extra, ID: spatial.ID(len(rects))})
	allEntries := append(append([]spatial.Entry{}, d.Entries...), spatial.Entry{Rect: extra, ID: spatial.ID(len(rects))})

	stale := 0
	for i := 0; i < ix.numTiles; i++ {
		if ix.tile(i).dec == nil {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("insert did not invalidate any decomposed tile")
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, ix.WindowIDs(w, nil), spatial.BruteWindow(allEntries, w), "stale-dec window")
	}

	ix.BuildDecomposed()
	for i := 0; i < ix.numTiles; i++ {
		if ix.tile(i).dec == nil {
			t.Fatal("BuildDecomposed left a stale tile")
		}
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, ix.WindowIDs(w, nil), spatial.BruteWindow(allEntries, w), "rebuilt-dec window")
	}
}

// TestDecomposedFootprintGrowth: 2-layer+ must report a strictly larger
// footprint than 2-layer over the same data (it stores a decomposed copy).
func TestDecomposedFootprintGrowth(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	rects := randRects(rnd, 400, 0.1)
	plain := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8})
	dec := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8, Decompose: true})
	if dec.MemoryFootprint() <= plain.MemoryFootprint() {
		t.Errorf("decomposed footprint %d not larger than plain %d",
			dec.MemoryFootprint(), plain.MemoryFootprint())
	}
}
