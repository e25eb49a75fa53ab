package core

import (
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Figure 1 of the paper: six rectangles on a 4x4 grid. Coordinates chosen
// to reproduce the tile assignments and classes listed in the figure.
func paperFigure1() (*Index, []geom.Rect) {
	// 4x4 grid over the unit square: tiles are 0.25 wide/high.
	rects := []geom.Rect{
		{MinX: 0.05, MinY: 0.05, MaxX: 0.15, MaxY: 0.15}, // r1: inside T0
		{MinX: 0.15, MinY: 0.15, MaxX: 0.35, MaxY: 0.35}, // r2: T0,T1,T4,T5
		{MinX: 0.40, MinY: 0.05, MaxX: 0.60, MaxY: 0.15}, // r3: T1,T2
		{MinX: 0.60, MinY: 0.30, MaxX: 0.85, MaxY: 0.45}, // r4: T6,T7
		{MinX: 0.55, MinY: 0.55, MaxX: 0.70, MaxY: 0.70}, // r5: T10
		{MinX: 0.80, MinY: 0.70, MaxX: 0.90, MaxY: 0.80}, // r6: T11,T15
	}
	d := spatial.NewDataset(rects)
	unit := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	return Build(d, Options{NX: 4, NY: 4, Space: unit}), rects
}

// TestPaperFigure1Classes verifies the secondary partitioning of the
// paper's running example.
func TestPaperFigure1Classes(t *testing.T) {
	ix, _ := paperFigure1()
	type want struct {
		tx, ty int
		class  Class
		id     spatial.ID
	}
	wants := []want{
		{0, 0, ClassA, 0}, // r1 in T0, class A
		{0, 0, ClassA, 1}, // r2 in T0, class A
		{1, 0, ClassC, 1}, // r2 in T1, class C
		{1, 0, ClassA, 2}, // r3 in T1, class A
		{2, 0, ClassC, 2}, // r3 in T2, class C
		{0, 1, ClassB, 1}, // r2 in T4, class B
		{1, 1, ClassD, 1}, // r2 in T5, class D
		{2, 1, ClassA, 3}, // r4 in T6, class A
		{3, 1, ClassC, 3}, // r4 in T7, class C
		{2, 2, ClassA, 4}, // r5 in T10, class A
		{3, 2, ClassA, 5}, // r6 in T11, class A
		{3, 3, ClassB, 5}, // r6 in T15, class B
	}
	for _, w := range wants {
		tl := ix.tileAt(w.tx, w.ty)
		if tl == nil {
			t.Fatalf("tile (%d,%d) unexpectedly empty", w.tx, w.ty)
		}
		found := false
		for _, e := range tl.class(w.class) {
			if e.ID == w.id {
				found = true
			}
		}
		if !found {
			t.Errorf("object %d not in class %v of tile (%d,%d); tile contents: %v",
				w.id, w.class, w.tx, w.ty, tl.run)
		}
	}
	// Replication check: r2 stored 4 times, r1 once.
	counts := ix.ClassCounts()
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total != 12 {
		t.Errorf("total stored entries = %d, want 12", total)
	}
	if counts[ClassA] != 6 {
		t.Errorf("class A count = %d, want 6 (one per object)", counts[ClassA])
	}
}

// TestPaperFigure1Window runs the query W of Figure 1 (covering tiles
// T0, T1, T4, T5) and checks the result set {r1, r2, r3}.
func TestPaperFigure1Window(t *testing.T) {
	ix, _ := paperFigure1()
	w := geom.Rect{MinX: 0.10, MinY: 0.10, MaxX: 0.45, MaxY: 0.45}
	got := windowIDs(ix, w)
	noDuplicates(t, got, "figure 1 window")
	sameIDs(t, got, []spatial.ID{0, 1, 2}, "figure 1 window")
}

// TestWindowMatchesBruteForce cross-checks the two-layer index against an
// exhaustive scan over many random datasets, grid granularities and
// window sizes, including windows sticking out of the indexed space.
func TestWindowMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	grids := []struct{ nx, ny int }{{1, 1}, {4, 4}, {16, 16}, {7, 13}, {64, 64}}
	for _, gr := range grids {
		for _, maxSide := range []float64{0.001, 0.05, 0.3} {
			ix, d := buildRandom(rnd, 500, maxSide, Options{NX: gr.nx, NY: gr.ny})
			for q := 0; q < 50; q++ {
				w := randWindow(rnd, 0.4)
				got := windowIDs(ix, w)
				noDuplicates(t, got, "window")
				want := spatial.BruteWindow(d.Entries, w)
				sameIDs(t, got, want, "window vs brute force")
			}
		}
	}
}

// TestWindowTinyAndHugeQueries exercises degenerate windows: points, full
// space, and windows containing the whole space.
func TestWindowEdgeCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ix, d := buildRandom(rnd, 300, 0.1, Options{NX: 8, NY: 8})

	full := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	got := windowIDs(ix, full)
	if len(got) != d.Len() {
		t.Errorf("full-space window returned %d of %d objects", len(got), d.Len())
	}
	noDuplicates(t, got, "full-space window")

	beyond := geom.Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}
	got, _ = ix.SearchIDs(Query{Window: &beyond}, got[:0])
	if len(got) != d.Len() {
		t.Errorf("super-space window returned %d of %d objects", len(got), d.Len())
	}

	point := geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}
	want := spatial.BruteWindow(d.Entries, point)
	sameIDs(t, windowIDs(ix, point), want, "point window")

	outside := geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}
	if n := ix.WindowCount(outside); n != 0 {
		t.Errorf("window outside space returned %d results", n)
	}
}

// TestWindowOnEmptyIndex must return nothing and not panic.
func TestWindowOnEmptyIndex(t *testing.T) {
	ix := New(Options{NX: 8, NY: 8})
	if n := ix.WindowCount(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); n != 0 {
		t.Errorf("empty index returned %d results", n)
	}
}

// TestSparseDirectory forces the hash-map directory and checks behavioural
// equivalence with the dense one.
func TestSparseDirectory(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	rects := randRects(rnd, 400, 0.05)
	d1 := spatial.NewDataset(rects)
	d2 := spatial.NewDataset(rects)
	denseIx := Build(d1, Options{NX: 32, NY: 32})
	sparseIx := withDirectory(true, func() *Index { return Build(d2, Options{NX: 32, NY: 32}) })
	if denseIx.sparse != nil || sparseIx.dense != nil {
		t.Fatal("directory styles not as configured")
	}
	for q := 0; q < 50; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, windowIDs(sparseIx, w), windowIDs(denseIx, w), "sparse vs dense")
	}
}

// TestClassAExactlyOnce checks the structural invariant that every object
// appears in class A of exactly one tile, and replicas land in B/C/D.
func TestClassAExactlyOnce(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	ix, d := buildRandom(rnd, 500, 0.2, Options{NX: 16, NY: 16})
	countA := make(map[spatial.ID]int)
	for i := 0; i < ix.numTiles; i++ {
		for _, e := range ix.tile(i).class(ClassA) {
			countA[e.ID]++
		}
	}
	if len(countA) != d.Len() {
		t.Fatalf("%d objects have a class-A entry, want %d", len(countA), d.Len())
	}
	for id, n := range countA {
		if n != 1 {
			t.Errorf("object %d in class A of %d tiles", id, n)
		}
	}
}

// TestReplicationConsistency verifies each object is stored in exactly the
// tiles its MBR intersects, with the class matching its position in the
// replication block.
func TestReplicationConsistency(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	ix, d := buildRandom(rnd, 200, 0.3, Options{NX: 8, NY: 8})
	for i := 0; i < ix.numTiles; i++ {
		tl := ix.tile(i)
		tid := ix.tileID(i)
		tx, ty := ix.g.TileCoords(int(tid))
		for c := ClassA; c <= ClassD; c++ {
			for _, e := range tl.class(c) {
				ax, ay, bx, by := ix.g.CoverRect(e.Rect)
				if tx < ax || tx > bx || ty < ay || ty > by {
					t.Fatalf("object %d stored in tile (%d,%d) outside its cover", e.ID, tx, ty)
				}
				if got := classify(tx, ty, ax, ay); got != c {
					t.Fatalf("object %d in tile (%d,%d): stored class %v, want %v", e.ID, tx, ty, c, got)
				}
			}
		}
	}
	_ = d
}

// TestAccessors covers the read-only accessors.
func TestAccessors(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	ix, d := buildRandom(rnd, 50, 0.1, Options{NX: 8, NY: 8})
	if ix.Grid() == nil || ix.Grid().NX != 8 {
		t.Error("Grid accessor wrong")
	}
	if ix.Dataset() != d {
		t.Error("Dataset accessor wrong")
	}
}

// BenchmarkAblationDirectory: dense array vs hash-map tile directory,
// counting windows of 0.1% relative extent over 200K ROADS-like objects
// on a 512² grid.
func BenchmarkAblationDirectory(b *testing.B) {
	d := datagen.RealLikeDataset(datagen.Roads, 200_000, 20210419)
	windows := datagen.Windows(d, datagen.QuerySpec{N: 1000, RelExtent: 0.001, Seed: 20210421})
	for _, sparse := range []bool{false, true} {
		name := map[bool]string{false: "dense", true: "sparse"}[sparse]
		b.Run(name, func(b *testing.B) {
			ix := withDirectory(sparse, func() *Index { return Build(d, Options{NX: 512, NY: 512}) })
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += ix.WindowCount(windows[i%len(windows)])
			}
			b.ReportMetric(float64(n)/float64(b.N), "results/op")
		})
	}
}

// TestBatchOnSparseDirectory exercises the sparse slot lookup in batch
// processing.
func TestBatchOnSparseDirectory(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	rects := randRects(rnd, 400, 0.05)
	ix := withDirectory(true, func() *Index { return Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16}) })
	queries := make([]geom.Rect, 30)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.3)
	}
	counts := ix.BatchWindowCounts(queries, TilesBased, 2)
	for i, w := range queries {
		if want := len(spatial.BruteWindow(ix.dataset.Entries, w)); counts[i] != want {
			t.Fatalf("query %d: %d, want %d", i, counts[i], want)
		}
	}
}

// TestMemoryAndReplicationReports sanity-checks the reporting helpers.
func TestMemoryAndReplicationReports(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	ix, _ := buildRandom(rnd, 100, 0.1, Options{NX: 8, NY: 8})
	if f := ix.ReplicationFactor(); f < 1 {
		t.Errorf("replication factor %v < 1", f)
	}
	if m := ix.MemoryFootprint(); m <= 0 {
		t.Errorf("memory footprint %d", m)
	}
	empty := New(Options{})
	if f := empty.ReplicationFactor(); f != 0 {
		t.Errorf("empty index replication factor = %v", f)
	}
}
