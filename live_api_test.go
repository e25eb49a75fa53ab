package twolayer_test

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	if got := searchIDs(t, old, twolayer.Query{Window: &unitSpace}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pinned snapshot = %v, want [1]", got)
	}
	snap := l.Snapshot()
	if got := sorted(searchIDs(t, snap, twolayer.Query{Window: &unitSpace})); len(got) != 1 || got[0] != 2 {
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
	if got := sorted(searchIDs(t, snap, twolayer.Query{Window: &unitSpace})); len(got) != 3 || got[2] != 10 {
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

// TestDiskUntilPublic: a disk Search runs to completion unless its
// callback stops it, and then stops after exactly that result.
func TestDiskUntilPublic(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	rects := randRects(rnd, 500, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16})
	q := twolayer.Query{Disk: &twolayer.Disk{Center: twolayer.Point{X: 0.5, Y: 0.5}, Radius: 0.3}}

	var all []twolayer.ID
	complete, err := idx.Search(q, func(id twolayer.ID, mbr twolayer.Rect) bool {
		if mbr != rects[id] {
			t.Fatalf("Search delivered MBR %v for %d, want %v", mbr, id, rects[id])
		}
		all = append(all, id)
		return true
	})
	if err != nil || !complete {
		t.Fatalf("unterminated disk Search: complete=%v err=%v, want true nil", complete, err)
	}
	want := searchIDs(t, idx, q)
	if len(all) != len(want) {
		t.Fatalf("Search yielded %d results, SearchIDs %d", len(all), len(want))
	}

	n := 0
	complete, _ = idx.Search(q, func(twolayer.ID, twolayer.Rect) bool {
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

	// Self-join and grid mismatch are errors, reported before any pair.
	noPair := func(_, _ twolayer.ID) { t.Fatal("a refused join delivered a pair") }
	if err := idx.Join(idx, noPair); !errors.Is(err, twolayer.ErrSelfJoin) {
		t.Fatalf("err = %v, want ErrSelfJoin", err)
	}
	other := twolayer.BuildRects(randRects(rand.New(rand.NewSource(7)), 50, 0.05), twolayer.Options{GridSize: 4})
	if err := idx.Join(other, noPair); !errors.Is(err, twolayer.ErrGridMismatch) {
		t.Fatalf("err = %v, want ErrGridMismatch", err)
	}
	if err := idx.JoinParallel(other, 4, noPair); !errors.Is(err, twolayer.ErrGridMismatch) {
		t.Fatalf("err = %v, want ErrGridMismatch", err)
	}
	if err := idx.Join(idx, noPair); !errors.Is(err, twolayer.ErrSelfJoin) {
		t.Fatalf("self-Join err = %v, want ErrSelfJoin", err)
	}

	// Compatible grids (a second index built over idx.Space()): Join
	// agrees with JoinParallel.
	sameGrid := twolayer.BuildRects(randRects(rand.New(rand.NewSource(7)), 50, 0.05), twolayer.Options{
		GridSize: 8, Space: idx.Space(),
	})
	pairs := 0
	if err := idx.Join(sameGrid, func(_, _ twolayer.ID) { pairs++ }); err != nil {
		t.Fatal(err)
	}
	var parallel atomic.Int64
	if err := idx.JoinParallel(sameGrid, 2, func(_, _ twolayer.ID) { parallel.Add(1) }); err != nil || int64(pairs) != parallel.Load() {
		t.Fatalf("Join visited %d pairs, JoinParallel %d (err %v)", pairs, parallel.Load(), err)
	}
}

// TestLiveSnapshotIsReadOnly: a Live snapshot is shared with every
// reader that pinned it, so updating it in place — directly or through
// a ReadView — panics with a pointer to Apply and leaves what later
// snapshots see untouched, while concurrent readers keep querying. kNN
// readers share the pinned snapshot, or a two-shard engine over the
// same objects, 8 goroutines to one with no view of their own, and must
// get the serial answers.
func TestLiveSnapshotIsReadOnly(t *testing.T) {
	rects := randRects(rand.New(rand.NewSource(8)), 400, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16, Decompose: true})
	l := twolayer.LiveFrom(idx, twolayer.LiveOptions{})
	defer l.Close()

	first := l.Snapshot()
	want := sorted(searchIDs(t, first, twolayer.Query{Window: &unitSpace}))
	if !first.Decomposed() {
		t.Fatal("a snapshot of a decomposed seed holds no 2-layer+ tables before any write")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		reader := l.Snapshot()
		for i := 0; i < 200; i++ {
			if _, err := reader.SearchCount(twolayer.Query{Window: &unitSpace}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sh := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 2})
	var readers sync.WaitGroup
	for _, shared := range []struct {
		name string
		knn  func(twolayer.Point, int) []twolayer.Neighbor
	}{{"snapshot KNN", first.KNN}, {"2-shard KNN", sh.KNN}, {"2-shard KNNExact", sh.KNNExact}} {
		points := make([]twolayer.Point, 32)
		want := make([][]twolayer.Neighbor, len(points))
		for i := range points {
			points[i] = twolayer.Point{X: float64(i%8) / 8, Y: float64(i/8) / 4}
			want[i] = shared.knn(points[i], 10)
		}
		for w := 0; w < 8; w++ {
			readers.Add(1)
			go func(w int) {
				defer readers.Done()
				for i := w; i < len(points); i += 8 {
					if got := shared.knn(points[i], 10); !slices.Equal(got, want[i]) {
						t.Errorf("%s at %v: got %v, want %v", shared.name, points[i], got, want[i])
						return
					}
				}
			}(w)
		}
	}

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
	readers.Wait()

	second := l.Snapshot()
	if got := sorted(searchIDs(t, second, twolayer.Query{Window: &unitSpace})); !slices.Equal(got, want) {
		t.Fatalf("second snapshot holds %d objects, want the first's %d", len(got), len(want))
	}
	if second.Len() != len(rects) || second.Epoch() != first.Epoch() {
		t.Fatalf("second snapshot: Len %d epoch %d, want %d and %d",
			second.Len(), second.Epoch(), len(rects), first.Epoch())
	}
	if !second.Decomposed() {
		t.Fatal("second snapshot lost the 2-layer+ tables to a refused write")
	}
	if _, err := l.Insert(9999, r); err != nil {
		t.Fatalf("Apply path after the refused writes: %v", err)
	}
	if l.Snapshot().Decomposed() || !first.Decomposed() {
		t.Fatalf("after a write: new snapshot decomposed %v (want false), first %v (want true)",
			l.Snapshot().Decomposed(), first.Decomposed())
	}
}

// rangeSearcher is the query surface Index and Sharded share.
type rangeSearcher interface {
	Search(twolayer.Query, func(twolayer.ID, twolayer.Rect) bool) (bool, error)
	SearchIDs(twolayer.Query, []twolayer.ID) ([]twolayer.ID, error)
	SearchCount(twolayer.Query) (int, error)
	KNN(twolayer.Point, int) []twolayer.Neighbor
	Len() int
}

// TestDeleteNeedsStoredMBR: a delete whose rectangle is not the stored
// MBR finds nothing and changes nothing, on a plain index, through
// Live.Apply and through a two-shard ShardedLive. Each wrong rectangle
// starts in the object's first tile, so its cover shares tiles and
// classes with the stored replicas: one stops inside the object, the
// other reaches past it. Afterwards every query form still sees the
// object once, with its stored MBR; the right rectangle then deletes it.
func TestDeleteNeedsStoredMBR(t *testing.T) {
	const id = twolayer.ID(1)
	obj := twolayer.Rect{MinX: 0.05, MinY: 0.4, MaxX: 0.95, MaxY: 0.55}
	wrong := []twolayer.Rect{
		{MinX: 0.05, MinY: 0.4, MaxX: 0.5, MaxY: 0.45},
		{MinX: 0.05, MinY: 0.4, MaxX: 0.99, MaxY: 0.9},
	}
	others := map[twolayer.ID]twolayer.Rect{
		2: {MinX: 0.1, MinY: 0.05, MaxX: 0.15, MaxY: 0.1},
		3: {MinX: 0.8, MinY: 0.85, MaxX: 0.9, MaxY: 0.95},
	}
	center := obj.Center()
	queries := []twolayer.Query{
		{Window: &obj},
		{Window: &wrong[0]},
		{Window: &wrong[1]},
		{Window: &twolayer.Rect{MinX: 0.94, MinY: 0.54, MaxX: 0.94, MaxY: 0.54}},
		{Window: &unitSpace, Limit: 10},
		{Disk: &twolayer.Disk{Center: center, Radius: 0.01}},
		{Disk: &twolayer.Disk{Center: twolayer.Point{X: 0.96, Y: 0.56}, Radius: 0.02}},
	}
	// visible fails unless every query finds the object exactly once,
	// with its stored MBR, in a view holding want objects.
	visible := func(label string, s rangeSearcher, want int) {
		t.Helper()
		if s.Len() != want {
			t.Fatalf("%s: Len = %d, want %d", label, s.Len(), want)
		}
		for qi, q := range queries {
			seen := 0
			if _, err := s.Search(q, func(got twolayer.ID, mbr twolayer.Rect) bool {
				if got == id {
					seen++
					if mbr != obj {
						t.Fatalf("%s: query %d delivered MBR %v, want %v", label, qi, mbr, obj)
					}
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			ids, err := s.SearchIDs(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			n, err := s.SearchCount(q)
			if err != nil {
				t.Fatal(err)
			}
			if seen != 1 || slices.Index(ids, id) < 0 || n != len(ids) {
				t.Fatalf("%s: query %d: Search saw the object %d times, SearchIDs %v, SearchCount %d",
					label, qi, seen, ids, n)
			}
		}
		if nb := s.KNN(center, 1); len(nb) != 1 || nb[0].ID != id {
			t.Fatalf("%s: KNN at the object's center = %v, want object %d", label, nb, id)
		}
	}
	gone := func(label string, s rangeSearcher) {
		t.Helper()
		if s.Len() != len(others) {
			t.Fatalf("%s: Len = %d after the delete, want %d", label, s.Len(), len(others))
		}
		if ids, _ := s.SearchIDs(twolayer.Query{Window: &unitSpace}, nil); slices.Contains(ids, id) {
			t.Fatalf("%s: object still found after the delete", label)
		}
	}
	opts := twolayer.Options{GridSize: 16, Space: unitSpace}
	seed := func(insert func(twolayer.ID, twolayer.Rect)) {
		insert(id, obj)
		for oid, r := range others {
			insert(oid, r)
		}
	}
	deletes := func(rects ...twolayer.Rect) []twolayer.Mutation {
		muts := make([]twolayer.Mutation, len(rects))
		for i, r := range rects {
			muts[i] = twolayer.Mutation{Delete: true, ID: id, MBR: r}
		}
		return muts
	}

	t.Run("Index", func(t *testing.T) {
		idx := twolayer.New(opts)
		seed(idx.Insert)
		for _, r := range wrong {
			if idx.Delete(id, r) {
				t.Fatalf("Delete with MBR %v reported found", r)
			}
			visible("after a wrong Delete", idx, len(others)+1)
		}
		if !idx.Delete(id, obj) {
			t.Fatal("Delete with the stored MBR reported not found")
		}
		gone("Index", idx)
	})

	t.Run("Live", func(t *testing.T) {
		l, err := twolayer.NewLive(opts, twolayer.LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		seed(func(oid twolayer.ID, r twolayer.Rect) { l.Insert(oid, r) })
		res, err := l.Apply(deletes(wrong...))
		if err != nil || slices.Contains(res.Found, true) {
			t.Fatalf("wrong-MBR Apply: Found %v, err %v; want all false", res.Found, err)
		}
		visible("Live after wrong deletes", l.Snapshot(), len(others)+1)
		if res, err := l.Apply(deletes(obj)); err != nil || !res.Found[0] {
			t.Fatalf("Apply with the stored MBR: Found %v, err %v", res.Found, err)
		}
		gone("Live", l.Snapshot())
	})

	t.Run("ShardedLive", func(t *testing.T) {
		sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil, opts, twolayer.ShardedOptions{Shards: 2}), twolayer.LiveOptions{})
		defer sl.Close()
		seed(func(oid twolayer.ID, r twolayer.Rect) { sl.Insert(oid, r) })
		res, err := sl.Apply(deletes(wrong...))
		if err != nil || slices.Contains(res.Found, true) {
			t.Fatalf("wrong-MBR Apply: Found %v, err %v; want all false", res.Found, err)
		}
		if sl.Len() != len(others)+1 {
			t.Fatalf("ShardedLive Len = %d after wrong deletes, want %d", sl.Len(), len(others)+1)
		}
		visible("ShardedLive after wrong deletes", sl.Snapshot(), len(others)+1)
		if res, err := sl.Apply(deletes(obj)); err != nil || !res.Found[0] {
			t.Fatalf("Apply with the stored MBR: Found %v, err %v", res.Found, err)
		}
		gone("ShardedLive", sl.Snapshot())
	})
}
