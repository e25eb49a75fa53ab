package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestInsertThenQueryMatchesBulk: incrementally inserting must give the
// same index behaviour as bulk building (the Table VI workload shape:
// bulk-load 90%, insert the rest).
func TestInsertThenQueryMatchesBulk(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	rects := randRects(rnd, 1000, 0.08)
	split := 900

	bulk := Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}})

	incr := New(Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}})
	for i := 0; i < split; i++ {
		incr.Insert(spatial.Entry{Rect: rects[i], ID: spatial.ID(i)})
	}
	for i := split; i < len(rects); i++ {
		incr.Insert(spatial.Entry{Rect: rects[i], ID: spatial.ID(i)})
	}
	if incr.Len() != bulk.Len() {
		t.Fatalf("Len %d != %d", incr.Len(), bulk.Len())
	}
	for q := 0; q < 60; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, windowIDs(incr, w), windowIDs(bulk, w), "incremental vs bulk")
	}
}

// TestDeleteRemovesFromAllTiles: a deleted object must disappear from
// every query and every replica tile.
func TestDeleteRemovesFromAllTiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	rects := randRects(rnd, 500, 0.15)
	ix := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}})

	// Delete every third object.
	remaining := make([]spatial.Entry, 0, len(rects))
	for i, r := range rects {
		if i%3 == 0 {
			if !ix.Delete(spatial.ID(i), r) {
				t.Fatalf("Delete(%d) reported not found", i)
			}
		} else {
			remaining = append(remaining, spatial.Entry{Rect: r, ID: spatial.ID(i)})
		}
	}
	if ix.Len() != len(remaining) {
		t.Fatalf("Len after deletes = %d, want %d", ix.Len(), len(remaining))
	}
	for q := 0; q < 60; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(remaining, w), "after delete")
	}
	// No replica of a deleted object may remain anywhere.
	for i := 0; i < ix.numTiles; i++ {
		for c := ClassA; c <= ClassD; c++ {
			for _, e := range ix.tile(i).class(c) {
				if e.ID%3 == 0 {
					t.Fatalf("deleted object %d still stored", e.ID)
				}
			}
		}
	}
}

// TestDeleteMissing: deleting an absent object reports false and leaves
// the index intact.
func TestDeleteMissing(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	rects := randRects(rnd, 100, 0.1)
	ix := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8})
	before := ix.Len()
	if ix.Delete(9999, geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}) {
		t.Error("Delete of missing object reported true")
	}
	if ix.Len() != before {
		t.Error("Len changed on failed delete")
	}
}

// TestDeleteMissKeepsCountIndex: a Delete that finds nothing (wrong id,
// stale MBR, replayed delete) changes nothing, so it must not drop the
// count pushdown's prefix table either — on a plain index and on the
// snapshot a Live index publishes for a batch of misses.
func TestDeleteMissKeepsCountIndex(t *testing.T) {
	rnd := rand.New(rand.NewSource(75))
	rects := randRects(rnd, 400, 0.1)
	ix := Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16, Space: unitSquare})
	entries := ix.Dataset().Entries
	check := func(ix *Index, what string) {
		t.Helper()
		if ix.counts == nil {
			t.Fatalf("%s: the prefix table is gone", what)
		}
		for q := 0; q < 40; q++ {
			w := randWindow(rnd, 0.5)
			if got, want := ix.WindowCount(w), len(spatial.BruteWindow(entries, w)); got != want {
				t.Fatalf("%s: WindowCount(%v) = %d, want %d", what, w, got, want)
			}
		}
	}
	check(ix, "built index")

	misses := []Mutation{
		{Delete: true, Entry: spatial.Entry{ID: 9999, Rect: rects[0]}}, // absent id
		{Delete: true, Entry: spatial.Entry{ID: 0, Rect: geom.Rect{ // stale MBR, other tiles
			MinX: rects[0].MinX + 0.4, MinY: rects[0].MinY, MaxX: rects[0].MaxX + 0.4, MaxY: rects[0].MaxY}}},
	}
	for _, m := range misses {
		if ix.Delete(m.Entry.ID, m.Entry.Rect) {
			t.Fatalf("Delete(%d, %v) reported true", m.Entry.ID, m.Entry.Rect)
		}
	}
	check(ix, "after missed deletes")

	l := NewLive(ix, LiveOptions{})
	defer l.Close()
	res, err := l.Apply(misses)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found[0] || res.Found[1] {
		t.Fatalf("Live reported %v for two misses", res.Found)
	}
	if snap := l.Snapshot(); snap.Epoch() != res.Epoch || snap == ix {
		t.Fatalf("no new snapshot was published (epoch %d)", snap.Epoch())
	}
	check(l.Snapshot(), "next Live snapshot")

	// A delete that does remove something still invalidates.
	if found, _, err := l.Delete(0, rects[0]); err != nil || !found {
		t.Fatalf("Delete of object 0: found %v, err %v", found, err)
	}
	if l.Snapshot().counts != nil {
		t.Fatal("a successful delete left the stale prefix table in place")
	}
}

// TestInsertDeleteChurn: random interleaving of inserts and deletes keeps
// the index consistent with a model map.
func TestInsertDeleteChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(74))
	ix := New(Options{NX: 8, NY: 8})
	model := make(map[spatial.ID]geom.Rect)
	nextID := spatial.ID(0)

	for step := 0; step < 2000; step++ {
		if len(model) == 0 || rnd.Float64() < 0.6 {
			r := randRects(rnd, 1, 0.1)[0]
			ix.Insert(spatial.Entry{Rect: r, ID: nextID})
			model[nextID] = r
			nextID++
		} else {
			// Delete a pseudo-random existing object.
			for id, r := range model {
				if !ix.Delete(id, r) {
					t.Fatalf("Delete(%d) failed", id)
				}
				delete(model, id)
				break
			}
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len %d != model %d", ix.Len(), len(model))
	}
	entries := make([]spatial.Entry, 0, len(model))
	for id, r := range model {
		entries = append(entries, spatial.Entry{Rect: r, ID: id})
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(entries, w), "churn")
	}
}

// TestInsertInvalidRectPanics: invalid rectangles fail loudly instead of
// being silently clamped into arbitrary tiles.
func TestInsertInvalidRectPanics(t *testing.T) {
	ix := New(Options{NX: 4, NY: 4})
	for _, r := range []geom.Rect{
		{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1},          // inverted
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, // NaN
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%v) did not panic", r)
				}
			}()
			ix.Insert(spatial.Entry{Rect: r})
		}()
	}
}

// TestClassString covers the Stringer.
func TestClassString(t *testing.T) {
	if ClassA.String() != "A" || ClassB.String() != "B" || ClassC.String() != "C" ||
		ClassD.String() != "D" || Class(7).String() != "Class(7)" {
		t.Error("Class.String wrong")
	}
}
