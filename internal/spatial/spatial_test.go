package spatial

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
)

func TestNewDataset(t *testing.T) {
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
	}
	d := NewDataset(rects)
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, e := range d.Entries {
		if e.ID != ID(i) || e.Rect != rects[i] {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Geom falls back to the MBR for rect-only datasets.
	g := d.Geom(0)
	if g.MBR() != rects[0] {
		t.Error("Geom fallback MBR mismatch")
	}
}

func TestNewGeomDataset(t *testing.T) {
	geoms := []geom.Geometry{
		geom.NewLineString(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}),
		geom.NewPolygon(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}, geom.Point{X: 0, Y: 1}),
	}
	d := NewGeomDataset(geoms)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Entries[0].Rect != geoms[0].MBR() {
		t.Error("derived MBR mismatch")
	}
	if d.Geom(1) != geoms[1] {
		t.Error("Geom lookup mismatch")
	}
}

// TestNewGeomDatasetWorkers checks the entries the workers derive, on
// counts around the per-worker minimum and with several workers at
// once, against the geometries' own MBRs in order.
func TestNewGeomDatasetWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, mbrShard - 1, mbrShard, 2*mbrShard + 1, 4*mbrShard + 3, 10 * mbrShard} {
		geoms := make([]geom.Geometry, n)
		for i := range geoms {
			x := float64(i)
			geoms[i] = geom.NewLineString(geom.Point{X: x, Y: -x}, geom.Point{X: x + 1, Y: x / 2}, geom.Point{X: x - 1, Y: 0})
		}
		d := NewGeomDataset(geoms)
		if len(d.Entries) != n {
			t.Fatalf("n=%d: %d entries", n, len(d.Entries))
		}
		for i, e := range d.Entries {
			if e.ID != ID(i) || e.Rect != geoms[i].MBR() {
				t.Fatalf("n=%d: entry %d = %+v, want ID %d rect %v", n, i, e, i, geoms[i].MBR())
			}
		}
	}
}

func TestDatasetMBR(t *testing.T) {
	empty := &Dataset{}
	if empty.MBR() != (geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}) {
		t.Error("empty dataset MBR should default to the unit square")
	}
	d := NewDataset([]geom.Rect{
		{MinX: -1, MinY: 0, MaxX: 0, MaxY: 2},
		{MinX: 3, MinY: -2, MaxX: 4, MaxY: 1},
	})
	if d.MBR() != (geom.Rect{MinX: -1, MinY: -2, MaxX: 4, MaxY: 2}) {
		t.Errorf("MBR = %v", d.MBR())
	}
}

func TestValidateFailures(t *testing.T) {
	bad := &Dataset{Entries: []Entry{{Rect: geom.Rect{MaxX: 1, MaxY: 1}, ID: 5}}}
	if bad.Validate() == nil {
		t.Error("non-dense IDs must fail validation")
	}
	inverted := &Dataset{Entries: []Entry{{Rect: geom.Rect{MinX: 2, MaxX: 1, MaxY: 1}, ID: 0}}}
	if inverted.Validate() == nil {
		t.Error("invalid rect must fail validation")
	}
	mismatched := &Dataset{
		Entries: []Entry{{Rect: geom.Rect{MaxX: 1, MaxY: 1}, ID: 0}},
		Geoms:   []geom.Geometry{},
	}
	if mismatched.Validate() == nil {
		t.Error("geometry count mismatch must fail validation")
	}
}

func TestBruteForceReferences(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, 200)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
	}
	d := NewDataset(rects)
	w := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	ids := BruteWindow(d.Entries, w)
	for _, id := range ids {
		if !rects[id].Intersects(w) {
			t.Fatalf("BruteWindow returned non-intersecting %d", id)
		}
	}
	want := 0
	for _, r := range rects {
		if r.Intersects(w) {
			want++
		}
	}
	if len(ids) != want {
		t.Fatalf("BruteWindow found %d, want %d", len(ids), want)
	}

	c := geom.Point{X: 0.5, Y: 0.5}
	dids := BruteDisk(d.Entries, c, 0.2)
	for _, id := range dids {
		if !rects[id].IntersectsDisk(c, 0.2) {
			t.Fatalf("BruteDisk returned non-intersecting %d", id)
		}
	}

	// Exact variants agree with MBR variants for rect-only data.
	if len(BruteWindowExact(d, w)) != len(ids) {
		t.Error("BruteWindowExact differs on rect data")
	}
	if len(BruteDiskExact(d, c, 0.2)) != len(dids) {
		t.Error("BruteDiskExact differs on rect data")
	}
}

func TestBruteExactRefines(t *testing.T) {
	// A triangle whose MBR intersects the window but whose geometry does
	// not.
	tri := geom.NewPolygon(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}, geom.Point{X: 0, Y: 1})
	d := NewGeomDataset([]geom.Geometry{tri})
	w := geom.Rect{MinX: 0.8, MinY: 0.8, MaxX: 0.95, MaxY: 0.95}
	if n := len(BruteWindow(d.Entries, w)); n != 1 {
		t.Fatalf("MBR filter should pass: %d", n)
	}
	if n := len(BruteWindowExact(d, w)); n != 0 {
		t.Fatalf("exact test should reject: %d", n)
	}
}
