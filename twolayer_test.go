package twolayer_test

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

func randRects(rnd *rand.Rand, n int, maxSide float64) []twolayer.Rect {
	rects := make([]twolayer.Rect, n)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + rnd.Float64()*maxSide, MaxY: y + rnd.Float64()*maxSide}
	}
	return rects
}

func bruteWindow(rects []twolayer.Rect, w twolayer.Rect) []twolayer.ID {
	var out []twolayer.ID
	for i, r := range rects {
		if r.Intersects(w) {
			out = append(out, twolayer.ID(i))
		}
	}
	return out
}

func sorted(ids []twolayer.ID) []twolayer.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// searchIDs runs SearchIDs on a descriptor the test knows to be valid.
func searchIDs(t testing.TB, idx rangeSearcher, q twolayer.Query) []twolayer.ID {
	t.Helper()
	ids, err := idx.SearchIDs(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// searchCount runs SearchCount on a descriptor the test knows to be
// valid.
func searchCount(t testing.TB, idx rangeSearcher, q twolayer.Query) int {
	t.Helper()
	n, err := idx.SearchCount(q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPublicWindowAPI(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	rects := randRects(rnd, 1000, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 32, Decompose: true})
	if idx.Len() != 1000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	for q := 0; q < 30; q++ {
		x, y := rnd.Float64(), rnd.Float64()
		w := twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.2, MaxY: y + 0.2}
		want := sorted(bruteWindow(rects, w))
		got := sorted(searchIDs(t, idx, twolayer.Query{Window: &w}))
		if len(got) != len(want) {
			t.Fatalf("got %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d", i)
			}
		}
		if n := searchCount(t, idx, twolayer.Query{Window: &w}); n != len(want) {
			t.Fatalf("count %d, want %d", n, len(want))
		}
		calls := 0
		complete, err := idx.Search(twolayer.Query{Window: &w}, func(id twolayer.ID, mbr twolayer.Rect) bool {
			if mbr != rects[id] {
				t.Fatalf("callback MBR mismatch for %d", id)
			}
			calls++
			return true
		})
		if err != nil || !complete {
			t.Fatalf("Search: complete=%v err=%v", complete, err)
		}
		if calls != len(want) {
			t.Fatalf("visitor called %d times, want %d", calls, len(want))
		}
	}
}

func TestPublicDiskAPI(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	rects := randRects(rnd, 500, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16})
	c := twolayer.Point{X: 0.5, Y: 0.5}
	q := twolayer.Query{Disk: &twolayer.Disk{Center: c, Radius: 0.2}}
	got := searchIDs(t, idx, q)
	want := 0
	for _, r := range rects {
		if r.IntersectsDisk(c, 0.2) {
			want++
		}
	}
	if len(got) != want || searchCount(t, idx, q) != want {
		t.Fatalf("disk results %d, want %d", len(got), want)
	}
}

func TestPublicExactAPI(t *testing.T) {
	geoms := []twolayer.Geometry{
		twolayer.NewPolygon(
			twolayer.Point{X: 0.1, Y: 0.1},
			twolayer.Point{X: 0.3, Y: 0.1},
			twolayer.Point{X: 0.2, Y: 0.3},
		),
		twolayer.NewLineString(
			twolayer.Point{X: 0.6, Y: 0.6},
			twolayer.Point{X: 0.9, Y: 0.9},
		),
	}
	idx := twolayer.BuildGeoms(geoms, twolayer.Options{GridSize: 8})
	// A window overlapping the polygon's MBR corner but not the polygon.
	w := twolayer.Rect{MinX: 0.27, MinY: 0.25, MaxX: 0.5, MaxY: 0.5}
	if hits := searchIDs(t, idx, twolayer.Query{Window: &w, Exact: true, Mode: twolayer.RefineAvoidPlus}); len(hits) != 0 {
		t.Fatalf("refinement failed to reject MBR-only candidate: %v", hits)
	}
	if n := searchCount(t, idx, twolayer.Query{Window: &w}); n != 1 {
		t.Fatalf("filtering window count = %d, want the polygon's MBR", n)
	}
	// A disk touching the linestring.
	hits := searchIDs(t, idx, twolayer.Query{
		Disk:  &twolayer.Disk{Center: twolayer.Point{X: 0.75, Y: 0.75}, Radius: 0.01},
		Exact: true,
		Mode:  twolayer.RefineAvoid,
	})
	if len(hits) != 1 || hits[0] != 1 {
		t.Fatalf("disk exact hits = %v, want [1]", hits)
	}
}

func TestPublicBatchAPI(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	rects := randRects(rnd, 800, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 16})
	queries := make([]twolayer.Rect, 50)
	for i := range queries {
		x, y := rnd.Float64(), rnd.Float64()
		queries[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
	}
	serial := idx.BatchWindowCounts(queries, twolayer.QueriesBased, 1)
	tiles := idx.BatchWindowCounts(queries, twolayer.TilesBased, 4)
	for i := range queries {
		if serial[i] != tiles[i] {
			t.Fatalf("query %d: %d != %d", i, serial[i], tiles[i])
		}
		if want := len(bruteWindow(rects, queries[i])); serial[i] != want {
			t.Fatalf("query %d: %d, want %d", i, serial[i], want)
		}
	}
}

func TestPublicUpdateAPI(t *testing.T) {
	for _, shards := range liveShards {
		sl := emptyLive(t, 8, shards)
		r := twolayer.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
		if _, err := sl.Insert(7, r); err != nil {
			t.Fatal(err)
		}
		all := twolayer.Query{Window: &twolayer.Rect{MaxX: 1, MaxY: 1}}
		if searchCount(t, sl.Snapshot(), all) != 1 {
			t.Fatalf("%d shards: inserted object not found", shards)
		}
		if found, _, err := sl.Delete(7, r); err != nil || !found {
			t.Fatalf("%d shards: delete: found %v, err %v", shards, found, err)
		}
		if searchCount(t, sl.Snapshot(), all) != 0 {
			t.Fatalf("%d shards: object survived delete", shards)
		}
	}
}

// TestInsertDropsGeometries: an object inserted through a ShardedLive has
// no geometry, so its snapshots refuse exact queries — an error from
// Search, a panic from KNNExact on the caller's goroutine, where a
// recover catches it — instead of reaching the object in refinement.
// The built engine it started from answers them; filtering queries keep
// answering, the inserted object included. It holds at one shard (over
// OneShard of a built index) and at two, where KNNExact fans out.
func TestInsertDropsGeometries(t *testing.T) {
	rects := []twolayer.Rect{{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}}
	opts := twolayer.Options{GridSize: 4, Space: twolayer.Rect{MaxX: 1, MaxY: 1}}
	all := twolayer.Rect{MaxX: 1, MaxY: 1}
	for _, shards := range liveShards {
		seed := twolayer.OneShard(twolayer.BuildRects(rects, opts))
		if shards > 1 {
			seed = twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
		}
		if n, err := seed.SearchCount(twolayer.Query{Window: &all, Exact: true}); err != nil || n != 1 {
			t.Fatalf("%d shards: exact count on the built engine = %d, %v; want 1", shards, n, err)
		}
		sl := twolayer.ShardedLiveFrom(seed, twolayer.LiveOptions{})
		defer sl.Close()
		if _, err := sl.Insert(5, twolayer.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}); err != nil {
			t.Fatal(err)
		}
		snap := sl.Snapshot()
		if _, err := snap.SearchCount(twolayer.Query{Window: &all, Exact: true}); err == nil {
			t.Fatalf("%d shards: exact count on a live snapshot succeeded; the inserted object has no geometry", shards)
		}
		if n := searchCount(t, snap, twolayer.Query{Window: &all}); n != 2 {
			t.Fatalf("%d shards: filtering count after Insert = %d, want 2", shards, n)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "KNNExact requires an engine built over a Dataset") {
					t.Fatalf("%d shards: KNNExact on a live snapshot recovered %q", shards, msg)
				}
			}()
			snap.KNNExact(twolayer.Point{X: 0.5, Y: 0.5}, 1)
		}()
	}
}

func TestPublicStatsAPI(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	idx := twolayer.BuildRects(randRects(rnd, 500, 0.1), twolayer.Options{GridSize: 16})
	view, s := idx.Instrumented()
	q := twolayer.Query{Window: &twolayer.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}}
	searchCount(t, view, q)
	if s.TilesVisited == 0 || s.Results == 0 {
		t.Errorf("stats not collected: %+v", s)
	}
	// Only the view counts: the index it was taken from stays uninstrumented.
	before := s.Results
	searchCount(t, idx, q)
	if s.Results != before {
		t.Error("queries on the base index leaked into the view's stats")
	}
	if idx.ReplicationFactor() < 1 {
		t.Error("reporting helpers wrong")
	}
}

func TestPublicKNNAndJoin(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	space := twolayer.Rect{MaxX: 1.2, MaxY: 1.2}
	a := twolayer.BuildRects(randRects(rnd, 400, 0.05), twolayer.Options{GridSize: 16, Space: space})
	bRects := randRects(rnd, 400, 0.05)
	b := twolayer.BuildRects(bRects, twolayer.Options{GridSize: 16, Space: space})

	q := twolayer.Point{X: 0.5, Y: 0.5}
	nn := a.KNN(q, 7)
	if len(nn) != 7 {
		t.Fatalf("KNN returned %d", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatal("KNN not sorted")
		}
	}

	pairs := 0
	if err := a.Join(b, func(_, _ twolayer.ID) { pairs++ }); err != nil {
		t.Fatal(err)
	}
	want := 0
	a.Search(twolayer.Query{Window: &twolayer.Rect{MaxX: 2, MaxY: 2}}, func(id twolayer.ID, mbr twolayer.Rect) bool {
		for _, s := range bRects {
			if mbr.Intersects(s) {
				want++
			}
		}
		return true
	})
	if pairs != want {
		t.Fatalf("join pairs %d, want %d", pairs, want)
	}
}

func TestPublicParallelUntil(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	space := twolayer.Rect{MaxX: 1.2, MaxY: 1.2}
	rects := randRects(rnd, 1000, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 32, Space: space})

	w := twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}

	// Limit 1 is the existence test: incomplete exactly when w has a hit.
	if complete, err := idx.Search(twolayer.Query{Window: &w, Limit: 1}, func(twolayer.ID, twolayer.Rect) bool { return true }); complete || err != nil {
		t.Fatalf("Limit 1 missed data: complete=%v err=%v", complete, err)
	}
	stops := 0
	complete, _ := idx.Search(twolayer.Query{Window: &w}, func(twolayer.ID, twolayer.Rect) bool {
		stops++
		return stops < 3
	})
	if stops != 3 || complete {
		t.Fatalf("stopped Search visited %d, complete=%v", stops, complete)
	}

	other := twolayer.BuildRects(randRects(rnd, 1000, 0.05), twolayer.Options{GridSize: 32, Space: space})
	serialPairs := 0
	if err := idx.Join(other, func(_, _ twolayer.ID) { serialPairs++ }); err != nil {
		t.Fatal(err)
	}
	var pairs int64
	var mu sync.Mutex
	if err := idx.JoinParallel(other, 4, func(_, _ twolayer.ID) {
		mu.Lock()
		pairs++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if int(pairs) != serialPairs {
		t.Fatalf("JoinParallel found %d pairs, want %d", pairs, serialPairs)
	}
}

func TestAutoTunedGridSize(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	rects := randRects(rnd, 5000, 0.01)
	idx := twolayer.BuildRects(rects, twolayer.Options{}) // no grid given
	w := twolayer.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}
	want := len(bruteWindow(rects, w))
	if got := searchCount(t, idx, twolayer.Query{Window: &w}); got != want {
		t.Fatalf("auto-tuned index returned %d, want %d", got, want)
	}
}
