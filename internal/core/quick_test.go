package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestQuickWindowEquivalence: for random datasets, grids and windows, the
// two-layer index (plain and decomposed) equals brute force with no
// duplicates. This is the library's master property.
func TestQuickWindowEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 20 + rnd.Intn(200)
		nx := 1 + rnd.Intn(24)
		ny := 1 + rnd.Intn(24)
		maxSide := []float64{0.01, 0.1, 0.5}[rnd.Intn(3)]
		rects := randRects(rnd, n, maxSide)
		d := spatial.NewDataset(rects)
		opts := Options{NX: nx, NY: ny, Decompose: rnd.Intn(2) == 1}
		if rnd.Intn(2) == 1 {
			opts.SparseDirectory = true
		}
		ix := Build(d, opts)
		for q := 0; q < 10; q++ {
			w := randWindow(rnd, 0.5)
			got := sortIDs(windowIDs(ix, w))
			want := sortIDs(spatial.BruteWindow(d.Entries, w))
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			seen := make(map[spatial.ID]bool)
			for _, id := range got {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiskEquivalence: the same property for disk queries.
func TestQuickDiskEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 20 + rnd.Intn(200)
		nx := 1 + rnd.Intn(24)
		ny := 1 + rnd.Intn(24)
		maxSide := []float64{0.01, 0.1, 0.5}[rnd.Intn(3)]
		d := spatial.NewDataset(randRects(rnd, n, maxSide))
		ix := Build(d, Options{NX: nx, NY: ny})
		for q := 0; q < 10; q++ {
			c := geom.Point{X: rnd.Float64()*1.4 - 0.2, Y: rnd.Float64()*1.4 - 0.2}
			radius := rnd.Float64() * 0.5
			got := sortIDs(diskIDs(ix, c, radius))
			want := sortIDs(spatial.BruteDisk(d.Entries, c, radius))
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsertEqualsBuild: inserting in random order equals bulk build.
func TestQuickInsertEqualsBuild(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 10 + rnd.Intn(100)
		rects := randRects(rnd, n, 0.2)
		d := spatial.NewDataset(rects)
		space := d.MBR()
		bulk := Build(d, Options{NX: 8, NY: 8, Space: space})
		incr := New(Options{NX: 8, NY: 8, Space: space})
		perm := rnd.Perm(n)
		for _, i := range perm {
			incr.Insert(spatial.Entry{Rect: rects[i], ID: spatial.ID(i)})
		}
		for q := 0; q < 5; q++ {
			w := randWindow(rnd, 0.4)
			a := sortIDs(windowIDs(bulk, w))
			b := sortIDs(windowIDs(incr, w))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickClassInvariant: replication-block classification is total and
// consistent — class A in the block's min tile, B below it, C right of
// it, D in the interior.
func TestQuickClassInvariant(t *testing.T) {
	f := func(tx, ty, ax, ay uint8) bool {
		// Interpret as tile coordinates with tile >= block min.
		bx, by := int(tx)+int(ax), int(ty)+int(ay)
		c := classify(bx, by, int(ax), int(ay))
		switch {
		case bx == int(ax) && by == int(ay):
			return c == ClassA
		case bx == int(ax):
			return c == ClassB
		case by == int(ay):
			return c == ClassC
		default:
			return c == ClassD
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNonFiniteMBRsRefused: an MBR with a NaN or infinite coordinate
// is never stored. For random MBRs with one to four non-finite
// coordinates, placed anywhere in a dataset, BuildErr returns an error,
// Build and Insert panic, and Live.Insert returns an error with nothing
// published; query windows reaching to infinity stay valid.
func TestQuickNonFiniteMBRsRefused(t *testing.T) {
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	opts := Options{NX: 8, NY: 8, Space: unitSquare}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rects := randRects(rnd, 1+rnd.Intn(50), 0.1)
		bad := &rects[rnd.Intn(len(rects))]
		coords := [4]*float64{&bad.MinX, &bad.MinY, &bad.MaxX, &bad.MaxY}
		for _, k := range rnd.Perm(4)[:1+rnd.Intn(4)] {
			*coords[k] = nonFinite[rnd.Intn(len(nonFinite))]
		}
		d := spatial.NewDataset(rects)
		if _, err := BuildErr(d, opts); err == nil {
			t.Logf("BuildErr accepted %v", *bad)
			return false
		}
		if !panics(func() { Build(d, opts) }) || !panics(func() { New(opts).Insert(spatial.Entry{Rect: *bad}) }) {
			t.Logf("Build or Insert accepted %v", *bad)
			return false
		}
		l := NewLive(New(opts), LiveOptions{})
		defer l.Close()
		if _, err := l.Insert(spatial.Entry{Rect: *bad}); err == nil || l.Snapshot().Len() != 0 {
			t.Logf("Live.Insert accepted %v", *bad)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// The parallel build refuses one too.
	rnd := rand.New(rand.NewSource(1))
	rects := randRects(rnd, minParallelBuildEntries+1, 0.01)
	rects[rnd.Intn(len(rects))].MaxY = math.Inf(1)
	if !panics(func() { Build(spatial.NewDataset(rects), Options{NX: 64, NY: 64, Space: unitSquare, BuildThreads: 2}) }) {
		t.Fatal("parallel Build accepted an infinite MBR")
	}

	// A window reaching to infinity is still a query over everything.
	ix := Build(spatial.NewDataset(rects[:100]), opts)
	all := geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	if n, ids := ix.WindowCount(all), windowIDs(ix, all); n != 100 || len(ids) != 100 {
		t.Fatalf("infinite window: count %d, %d IDs, want 100", n, len(ids))
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
