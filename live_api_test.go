package twolayer_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

var unitSpace = twolayer.Rect{MaxX: 1, MaxY: 1}

// liveShards are the shard counts every ShardedLive test runs at: one
// (an unsharded index's live handle) and two (a fan-out on every query
// that crosses x = 0.5).
var liveShards = []int{1, 2}

// emptyLive returns an empty ShardedLive over the unit square.
func emptyLive(t testing.TB, gridSize, shards int) *twolayer.ShardedLive {
	t.Helper()
	sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil,
		twolayer.Options{GridSize: gridSize, Space: unitSpace},
		twolayer.ShardedOptions{Shards: shards}), twolayer.LiveOptions{})
	t.Cleanup(sl.Close)
	return sl
}

func TestLivePublicAPI(t *testing.T) {
	for _, shards := range liveShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l := emptyLive(t, 16, shards)
			if l.Shards() != shards {
				t.Fatalf("Shards = %d, want %d", l.Shards(), shards)
			}
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
			if snap.Epoch() != res.Epoch || old.Epoch() != e1 {
				t.Fatalf("snapshot epochs %d and %d, want %d and %d", snap.Epoch(), old.Epoch(), res.Epoch, e1)
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
		})
	}
}

// TestLiveFromBuiltIndex: a built index (through OneShard) or a built
// two-shard engine becomes a ShardedLive's epoch-0 state.
func TestLiveFromBuiltIndex(t *testing.T) {
	rects := []twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8},
	}
	opts := twolayer.Options{GridSize: 8, Space: unitSpace}
	for _, shards := range liveShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seed := twolayer.OneShard(twolayer.BuildRects(rects, opts))
			if shards > 1 {
				seed = twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
			}
			l := twolayer.ShardedLiveFrom(seed, twolayer.LiveOptions{})
			defer l.Close()

			if l.Len() != 2 || l.Snapshot().Epoch() != 0 {
				t.Fatalf("Len = %d, epoch %d; want 2 and 0", l.Len(), l.Snapshot().Epoch())
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
		})
	}
}

// TestBuildPanicsOnCallerGoroutine: a sharded build over invalid options
// or a degenerate data box panics with BuildRectsErr's text on the
// caller's goroutine, where a recover catches it, at one shard and at
// two. A panic inside the build's fan-out would crash the process
// instead.
func TestBuildPanicsOnCallerGoroutine(t *testing.T) {
	line := []twolayer.Rect{
		{MinX: 0.5, MinY: 0.1, MaxX: 0.5, MaxY: 0.2},
		{MinX: 0.5, MinY: 0.6, MaxX: 0.5, MaxY: 0.9},
	}
	cases := []struct {
		name  string
		rects []twolayer.Rect
		opts  twolayer.Options
	}{
		{"data on one vertical line", line, twolayer.Options{GridSize: 8}},
		{"zero-width Space", randRects(rand.New(rand.NewSource(3)), 50, 0.05),
			twolayer.Options{GridSize: 8, Space: twolayer.Rect{MinX: 0.5, MaxX: 0.5, MaxY: 1}}},
		{"negative GridSize", line, twolayer.Options{GridSize: -1, Space: unitSpace}},
	}
	for _, tc := range cases {
		_, err := twolayer.BuildRectsErr(tc.rects, tc.opts)
		if err == nil {
			t.Fatalf("%s: BuildRectsErr accepted it", tc.name)
		}
		for _, shards := range liveShards {
			func() {
				defer func() {
					if msg, _ := recover().(string); msg != err.Error() {
						t.Errorf("%s at %d shards: recovered %q, want %q", tc.name, shards, msg, err)
					}
				}()
				twolayer.BuildShardedRects(tc.rects, tc.opts, twolayer.ShardedOptions{Shards: shards})
			}()
		}
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

// TestLiveSnapshotIsReadOnly: a ShardedLive snapshot is immutable and
// shared. While a writer moves objects, 8 goroutines share one pinned
// snapshot with no view of their own and keep getting its serial answers
// (window counts and kNN); afterwards the snapshot still holds its epoch
// and contents while a fresh one is past epoch 0. A static two-shard
// engine shares kNN readers the same way.
func TestLiveSnapshotIsReadOnly(t *testing.T) {
	rects := randRects(rand.New(rand.NewSource(8)), 400, 0.05)
	opts := twolayer.Options{GridSize: 16, Space: unitSpace}
	points := make([]twolayer.Point, 32)
	for i := range points {
		points[i] = twolayer.Point{X: float64(i%8) / 8, Y: float64(i/8) / 4}
	}
	// shareReaders runs 8 goroutines over points against one shared
	// reader while during runs, and fails on any answer that differs from
	// the serial one taken before.
	shareReaders := func(name string, r rangeSearcher, knn func(twolayer.Point, int) []twolayer.Neighbor, during func()) {
		want := make([][]twolayer.Neighbor, len(points))
		wantN := make([]int, len(points))
		for i, p := range points {
			want[i] = knn(p, 10)
			w := twolayer.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + 0.2, MaxY: p.Y + 0.2}
			wantN[i] = searchCount(t, r, twolayer.Query{Window: &w})
		}
		var readers sync.WaitGroup
		for w := 0; w < 8; w++ {
			readers.Add(1)
			go func(w int) {
				defer readers.Done()
				for i := w; i < len(points); i += 8 {
					p := points[i]
					win := twolayer.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + 0.2, MaxY: p.Y + 0.2}
					n, err := r.SearchCount(twolayer.Query{Window: &win})
					if got := knn(p, 10); !slices.Equal(got, want[i]) || err != nil || n != wantN[i] {
						t.Errorf("%s at %v: kNN %v count %d (%v), want %v and %d", name, p, got, n, err, want[i], wantN[i])
						return
					}
				}
			}(w)
		}
		during()
		readers.Wait()
	}

	sh := twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: 2})
	shareReaders("2-shard KNN", sh, sh.KNN, func() {})
	shareReaders("2-shard KNNExact", sh, sh.KNNExact, func() {})

	for _, shards := range liveShards {
		l := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(rects, opts,
			twolayer.ShardedOptions{Shards: shards}), twolayer.LiveOptions{})
		defer l.Close()
		first := l.Snapshot()
		want := sorted(searchIDs(t, first, twolayer.Query{Window: &unitSpace}))
		shareReaders(fmt.Sprintf("snapshot KNN at %d shards", shards), first, first.KNN, func() {
			for id := 0; id < len(rects); id += 10 {
				r := rects[id]
				to := twolayer.Rect{MinX: 1 - r.MaxX, MinY: r.MinY, MaxX: 1 - r.MinX, MaxY: r.MaxY}
				res, err := l.Apply([]twolayer.Mutation{
					{Delete: true, ID: twolayer.ID(id), MBR: r},
					{ID: twolayer.ID(id), MBR: to},
				})
				if err != nil || !res.Found[0] {
					t.Errorf("move of %d: Found %v, err %v", id, res.Found, err)
					return
				}
			}
		})
		if got := sorted(searchIDs(t, first, twolayer.Query{Window: &unitSpace})); !slices.Equal(got, want) ||
			first.Epoch() != 0 || first.Len() != len(rects) {
			t.Fatalf("%d shards: the pinned snapshot changed: %d objects, epoch %d, Len %d",
				shards, len(got), first.Epoch(), first.Len())
		}
		if second := l.Snapshot(); second.Epoch() == 0 || second.Len() != len(rects) {
			t.Fatalf("%d shards: a fresh snapshot after the moves: epoch %d, Len %d", shards, second.Epoch(), second.Len())
		}
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
// MBR finds nothing and changes nothing, through ShardedLive.Apply at
// one shard (Live) and at two (ShardedLive). Each wrong rectangle
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

	for _, tc := range []struct {
		name   string
		shards int
	}{{"Live", 1}, {"ShardedLive", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			sl := emptyLive(t, 16, tc.shards)
			seed(func(oid twolayer.ID, r twolayer.Rect) { sl.Insert(oid, r) })
			res, err := sl.Apply(deletes(wrong...))
			if err != nil || slices.Contains(res.Found, true) {
				t.Fatalf("wrong-MBR Apply: Found %v, err %v; want all false", res.Found, err)
			}
			if sl.Len() != len(others)+1 {
				t.Fatalf("Len = %d after wrong deletes, want %d", sl.Len(), len(others)+1)
			}
			visible(tc.name+" after wrong deletes", sl.Snapshot(), len(others)+1)
			if found, _, err := sl.Delete(id, obj); err != nil || !found {
				t.Fatalf("Delete with the stored MBR: found %v, err %v", found, err)
			}
			gone(tc.name, sl.Snapshot())
		})
	}
}
