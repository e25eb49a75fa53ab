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
			sameIDs(t, windowIDs(dec, w), windowIDs(plain, w), "decomposed vs plain")
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
		got := windowIDs(ix, w)
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
// Table II of the paper are materialized per class, sorted, each row
// referring to its own entry, and that the tables of all tiles are
// carved from the one slab without gaps or overlap.
func TestTableIIStorage(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	ix, _ := buildRandom(rnd, 500, 0.3, Options{NX: 8, NY: 8, Decompose: true})
	if !ix.Decomposed() || len(ix.dec.at) != ix.numTiles {
		t.Fatalf("side table: decomposed %v, %d slots for %d tiles", ix.Decomposed(), len(ix.dec.at), ix.numTiles)
	}
	carved := 0
	for i := 0; i < ix.numTiles; i++ {
		tl := ix.tile(i)
		if ix.dec.at[i] != carved {
			t.Fatalf("slot %d: tables start at pair %d, want %d", i, ix.dec.at[i], carved)
		}
		for c := ClassA; c <= ClassD; c++ {
			d := ix.dec.class(int32(i), tl, c)
			n := len(tl.class(c))
			hasXL := c == ClassA || c == ClassB
			hasYL := c == ClassA || c == ClassC
			if got := len(d[cmpXL]); got != map[bool]int{true: n, false: 0}[hasXL] {
				t.Fatalf("class %v: xl table has %d entries for %d objects", c, got, n)
			}
			if got := len(d[cmpYL]); got != map[bool]int{true: n, false: 0}[hasYL] {
				t.Fatalf("class %v: yl table has %d entries for %d objects", c, got, n)
			}
			if len(d[cmpXU]) != n || len(d[cmpYU]) != n {
				t.Fatalf("class %v: xu/yu tables must always exist", c)
			}
			for k, tab := range d {
				carved += len(tab)
				// Tables must be sorted, on the coordinate of the entry
				// each row refers to.
				for j := range tab {
					if j > 0 && tab[j].coord < tab[j-1].coord {
						t.Fatal("decomposed table not sorted")
					}
					if tab[j].coord != coordOf(k, &tl.class(c)[tab[j].ref]) {
						t.Fatalf("class %v table %d row %d: coord %v is not its entry's", c, k, j, tab[j].coord)
					}
				}
			}
		}
	}
	if carved != len(ix.dec.pairs) {
		t.Fatalf("tables cover %d pairs of a %d-pair slab", carved, len(ix.dec.pairs))
	}
}

// TestDecomposedStaleAfterInsert: the first write drops the whole side
// table — the index holds 2-layer+ tables for every tile or for none —
// and queries stay correct through plain scans; BuildDecomposed restores
// the tables, and a successful Delete drops them again while one that
// finds nothing leaves them.
func TestDecomposedStaleAfterInsert(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	rects := randRects(rnd, 300, 0.1)
	d := spatial.NewDataset(rects)
	ix := Build(d, Options{NX: 8, NY: 8, Decompose: true})
	view := ix.View(nil)

	extra := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	ix.Insert(spatial.Entry{Rect: extra, ID: spatial.ID(len(rects))})
	allEntries := append(append([]spatial.Entry{}, d.Entries...), spatial.Entry{Rect: extra, ID: spatial.ID(len(rects))})

	if ix.Decomposed() || ix.dec != nil {
		t.Fatal("insert left the 2-layer+ side table in place")
	}
	if !view.Decomposed() {
		t.Fatal("insert dropped the table of a view taken before it")
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(allEntries, w), "dropped-dec window")
	}

	ix.BuildDecomposed()
	if !ix.Decomposed() || len(ix.dec.at) != ix.numTiles {
		t.Fatalf("BuildDecomposed: decomposed %v over %d of %d slots", ix.Decomposed(), len(ix.dec.at), ix.numTiles)
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(allEntries, w), "rebuilt-dec window")
	}

	if ix.Delete(spatial.ID(len(rects)+1), extra) || !ix.Decomposed() {
		t.Fatal("a Delete that found nothing dropped the side table")
	}
	if !ix.Delete(spatial.ID(len(rects)), extra) || ix.Decomposed() {
		t.Fatal("a successful Delete left the side table in place")
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

// TestMemoryFootprintCountsReadTables: the footprint includes the
// derived read tables — the count prefix table, 8 bytes per cell of its
// (NX+1)x(NY+1) array, and the 2-layer+ side table — so the Delete that
// drops them shrinks it by exactly their size plus the removed entries.
func TestMemoryFootprintCountsReadTables(t *testing.T) {
	for _, decompose := range []bool{false, true} {
		rnd := rand.New(rand.NewSource(26))
		ix, d := buildRandom(rnd, 500, 0.05, Options{NX: 16, NY: 16, Decompose: decompose})
		tables := 8 * 17 * 17
		if decompose {
			tables += ix.dec.footprint()
		}
		before := ix.MemoryFootprint()
		e := d.Entries[0]
		ax, ay, bx, by := ix.Grid().CoverRect(e.Rect)
		removed := (bx - ax + 1) * (by - ay + 1) * int(entryBytes)
		if !ix.Delete(e.ID, e.Rect) {
			t.Fatalf("delete of %d found nothing", e.ID)
		}
		if got, want := before-ix.MemoryFootprint(), tables+removed; got != want {
			t.Errorf("decompose=%v: footprint fell by %d bytes, want %d (%d of read tables, %d of entries)",
				decompose, got, want, tables, removed)
		}
	}
}
