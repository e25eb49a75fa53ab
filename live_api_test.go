package twolayer_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

var unitSpace = twolayer.Rect{MaxX: 1, MaxY: 1}

func TestLivePublicAPI(t *testing.T) {
	l, err := twolayer.NewLive(twolayer.Options{GridSize: 16, Space: unitSpace}, twolayer.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	e1, err := l.Insert(1, twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if e1 == 0 {
		t.Fatal("publish epoch should be > 0")
	}
	old := l.Snapshot()

	res, err := l.Apply([]twolayer.Mutation{
		{ID: 2, MBR: twolayer.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}},
		{Delete: true, ID: 1, MBR: twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}},
		{Delete: true, ID: 99, MBR: twolayer.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found[0] || !res.Found[1] || res.Found[2] {
		t.Fatalf("Found = %v, want [true true false]", res.Found)
	}
	if res.Epoch <= e1 {
		t.Fatalf("epoch %d did not advance past %d", res.Epoch, e1)
	}

	// Pinned snapshot is unaffected; a fresh one sees the batch.
	if got := old.WindowIDs(unitSpace, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pinned snapshot = %v, want [1]", got)
	}
	snap := l.Snapshot()
	if got := sorted(snap.WindowIDs(unitSpace, nil)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fresh snapshot = %v, want [2]", got)
	}
	if snap.Epoch() != res.Epoch {
		t.Fatalf("snapshot epoch %d, want %d", snap.Epoch(), res.Epoch)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}

	// Invalid rectangle rejected as an error, batch untouched.
	if _, err := l.Insert(3, twolayer.Rect{MinX: 1, MaxX: 0}); err == nil {
		t.Fatal("want error for invalid rect")
	}

	st := l.Stats()
	if st.Objects != 1 || st.Applied != 4 {
		t.Fatalf("stats %+v, want Objects 1 Applied 4", st)
	}

	l.Close()
	if _, err := l.Insert(4, twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}); !errors.Is(err, twolayer.ErrLiveClosed) {
		t.Fatalf("err = %v, want ErrLiveClosed", err)
	}
}

func TestLiveFromBuiltIndex(t *testing.T) {
	rects := []twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8},
	}
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 8, Space: unitSpace})
	l := twolayer.LiveFrom(idx, twolayer.LiveOptions{})
	defer l.Close()

	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if _, err := l.Insert(10, twolayer.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.5, MaxY: 0.5}); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if got := sorted(snap.WindowIDs(unitSpace, nil)); len(got) != 3 || got[2] != 10 {
		t.Fatalf("snapshot = %v, want [0 1 10]", got)
	}
	// Snapshots answer kNN without extra synchronization.
	nb := snap.KNN(twolayer.Point{X: 0.45, Y: 0.45}, 1)
	if len(nb) != 1 || nb[0].ID != 10 {
		t.Fatalf("KNN = %v, want object 10", nb)
	}
}

func TestNewLiveValidation(t *testing.T) {
	if _, err := twolayer.NewLive(twolayer.Options{GridSize: 16}, twolayer.LiveOptions{}); err == nil {
		t.Fatal("want error when Space is unset")
	}
	if _, err := twolayer.NewLive(twolayer.Options{GridSize: -1, Space: unitSpace}, twolayer.LiveOptions{}); err == nil {
		t.Fatal("want error for negative GridSize")
	}
}

func TestIterators(t *testing.T) {
	rects := []twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.15, MinY: 0.15, MaxX: 0.3, MaxY: 0.3},
		{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8},
	}
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 8})

	var winIDs []twolayer.ID
	for id, mbr := range idx.WindowAll(twolayer.Rect{MaxX: 0.5, MaxY: 0.5}) {
		if mbr != rects[id] {
			t.Fatalf("iterator MBR %v does not match rects[%d]", mbr, id)
		}
		winIDs = append(winIDs, id)
	}
	if got := sorted(winIDs); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("WindowAll = %v, want [0 1]", got)
	}

	// Early break terminates the scan.
	n := 0
	for range idx.WindowAll(unitSpace) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break yielded %d results, want 1", n)
	}

	var diskIDs []twolayer.ID
	for id := range idx.DiskAll(twolayer.Point{X: 0.75, Y: 0.75}, 0.1) {
		diskIDs = append(diskIDs, id)
	}
	if len(diskIDs) != 1 || diskIDs[0] != 2 {
		t.Fatalf("DiskAll = %v, want [2]", diskIDs)
	}

	q := twolayer.Point{X: 0.0, Y: 0.0}
	var knnIDs []twolayer.ID
	var dists []float64
	for id, d := range idx.KNNAll(q, 2) {
		knnIDs = append(knnIDs, id)
		dists = append(dists, d)
	}
	want := idx.KNN(q, 2)
	if len(knnIDs) != len(want) {
		t.Fatalf("KNNAll yielded %d, want %d", len(knnIDs), len(want))
	}
	for i := range want {
		if knnIDs[i] != want[i].ID || math.Abs(dists[i]-want[i].Dist) > 1e-12 {
			t.Fatalf("KNNAll[%d] = (%d, %g), want (%d, %g)", i, knnIDs[i], dists[i], want[i].ID, want[i].Dist)
		}
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatalf("KNNAll distances not ascending: %v", dists)
	}
}

func TestDiskUntilPublic(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	rects := randRects(rnd, 500, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16})
	c, radius := twolayer.Point{X: 0.5, Y: 0.5}, 0.3

	var all []twolayer.ID
	complete := idx.DiskUntil(c, radius, func(id twolayer.ID, _ twolayer.Rect) bool {
		all = append(all, id)
		return true
	})
	if !complete {
		t.Fatal("unterminated DiskUntil should report completion")
	}
	want := idx.DiskIDs(c, radius, nil)
	if len(all) != len(want) {
		t.Fatalf("DiskUntil yielded %d results, DiskIDs %d", len(all), len(want))
	}

	n := 0
	complete = idx.DiskUntil(c, radius, func(twolayer.ID, twolayer.Rect) bool {
		n++
		return n < 3
	})
	if complete || n != 3 {
		t.Fatalf("early termination: complete=%v n=%d, want false 3", complete, n)
	}
}

func TestErrAPIs(t *testing.T) {
	if err := (twolayer.Options{GridSize: -2}).Validate(); err == nil {
		t.Fatal("want error for negative GridSize")
	}
	if err := (twolayer.Options{GridSize: 16}).Validate(); err != nil {
		t.Fatal(err)
	}

	if _, err := twolayer.BuildRectsErr(nil, twolayer.Options{GridSize: -1}); err == nil {
		t.Fatal("want error from BuildRectsErr on invalid options")
	}
	idx, err := twolayer.BuildRectsErr(randRects(rand.New(rand.NewSource(7)), 100, 0.05), twolayer.Options{GridSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 100 {
		t.Fatalf("Len = %d, want 100", idx.Len())
	}

	// Self-join and grid-mismatch become errors instead of panics.
	if err := idx.JoinErr(idx, func(_, _ twolayer.ID) {}); !errors.Is(err, twolayer.ErrSelfJoin) {
		t.Fatalf("err = %v, want ErrSelfJoin", err)
	}
	other := twolayer.BuildRects(randRects(rand.New(rand.NewSource(7)), 50, 0.05), twolayer.Options{GridSize: 4})
	if err := idx.JoinErr(other, func(_, _ twolayer.ID) {}); !errors.Is(err, twolayer.ErrGridMismatch) {
		t.Fatalf("err = %v, want ErrGridMismatch", err)
	}
	if err := idx.JoinParallelErr(other, 4, func(_, _ twolayer.ID) {}); !errors.Is(err, twolayer.ErrGridMismatch) {
		t.Fatalf("err = %v, want ErrGridMismatch", err)
	}

	// Compatible grids: JoinErr agrees with JoinCount.
	sameGrid := twolayer.BuildRects(randRects(rand.New(rand.NewSource(7)), 50, 0.05), twolayer.Options{
		GridSize: 8, Space: idx.Space(),
	})
	pairs := 0
	if err := idx.JoinErr(sameGrid, func(_, _ twolayer.ID) { pairs++ }); err != nil {
		t.Fatal(err)
	}
	if want := idx.JoinCount(sameGrid); pairs != want {
		t.Fatalf("JoinErr visited %d pairs, JoinCount %d", pairs, want)
	}
}

// TestLiveSnapshotIsReadOnly: a Live snapshot is shared with every
// reader that pinned it, so updating it in place — directly or through
// a ReadView — panics with a pointer to Apply and leaves what later
// snapshots see untouched, while a concurrent reader keeps querying.
func TestLiveSnapshotIsReadOnly(t *testing.T) {
	rects := randRects(rand.New(rand.NewSource(8)), 400, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16, Decompose: true})
	l := twolayer.LiveFrom(idx, twolayer.LiveOptions{})
	defer l.Close()

	first := l.Snapshot()
	want := sorted(first.WindowIDs(unitSpace, nil))
	wantDec := first.PartitionStats().DecomposedTiles

	done := make(chan struct{})
	go func() {
		defer close(done)
		reader := l.Snapshot()
		for i := 0; i < 200; i++ {
			reader.WindowCount(unitSpace)
		}
	}()

	r := rects[0]
	for name, write := range map[string]func(ix *twolayer.Index){
		"Insert":            func(ix *twolayer.Index) { ix.Insert(9999, r) },
		"Delete":            func(ix *twolayer.Index) { ix.Delete(0, r) },
		"RebuildDecomposed": func(ix *twolayer.Index) { ix.RebuildDecomposed() },
	} {
		for _, ix := range []*twolayer.Index{first, first.ReadView()} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "Live.Apply") {
						t.Errorf("%s on a snapshot: recovered %q, want a panic naming Live.Apply", name, msg)
					}
				}()
				write(ix)
			}()
		}
	}
	<-done

	second := l.Snapshot()
	if got := sorted(second.WindowIDs(unitSpace, nil)); !slices.Equal(got, want) {
		t.Fatalf("second snapshot holds %d objects, want the first's %d", len(got), len(want))
	}
	if second.Len() != len(rects) || second.Epoch() != first.Epoch() {
		t.Fatalf("second snapshot: Len %d epoch %d, want %d and %d",
			second.Len(), second.Epoch(), len(rects), first.Epoch())
	}
	if got := second.PartitionStats().DecomposedTiles; got != wantDec {
		t.Fatalf("second snapshot: %d decomposed tiles, want %d", got, wantDec)
	}
	if _, err := l.Insert(9999, r); err != nil {
		t.Fatalf("Apply path after the refused writes: %v", err)
	}
}
