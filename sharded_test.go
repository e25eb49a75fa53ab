package twolayer_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// shardCountsUnderTest is the shard-count sweep of the equivalence
// property tests: degenerate (1), even split, odd split, and whatever
// the host machine would pick by default.
func shardCountsUnderTest() []int {
	counts := []int{1, 2, 7, runtime.NumCPU()}
	seen := make(map[int]bool)
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// sameNeighbors compares two k-nearest result lists, tolerating
// tie-order freedom: the distance sequences must match exactly, and
// each group of equal distances must hold the same ID set — except the
// trailing group, where the k cutoff makes any equally-near subset
// valid.
func sameNeighbors(t *testing.T, label string, got, want []twolayer.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d dist = %g, want %g", label, i, got[i].Dist, want[i].Dist)
		}
	}
	for i := 0; i < len(want); {
		j := i
		for j < len(want) && want[j].Dist == want[i].Dist {
			j++
		}
		if j == len(want) {
			break // trailing tie group: any equally-near subset is valid
		}
		g := make(map[twolayer.ID]bool, j-i)
		for _, n := range got[i:j] {
			g[n.ID] = true
		}
		for _, n := range want[i:j] {
			if !g[n.ID] {
				t.Fatalf("%s: neighbors at dist %g differ: ID %d missing", label, n.Dist, n.ID)
			}
		}
		i = j
	}
}

func sameIDs(t *testing.T, label string, got, want []twolayer.ID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d IDs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ID mismatch at %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestShardedEquivalence is the central property test of the sharded
// engine: for every shard count in the sweep, window, disk, count, and
// limited queries over the scatter-gather engine return byte-identical
// sorted ID sets to the single-index engine over the same data.
func TestShardedEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	// Mix small rects with wide horizontal slabs so plenty of objects
	// straddle shard boundaries and exercise the dedup rule.
	rects := randRects(rnd, 3000, 0.04)
	for i := 0; i < 200; i++ {
		y := rnd.Float64()
		rects = append(rects, twolayer.Rect{
			MinX: rnd.Float64() * 0.5, MinY: y,
			MaxX: 0.5 + rnd.Float64()*0.5, MaxY: y + 0.01,
		})
	}
	opts := twolayer.Options{GridSize: 32}
	oracle := twolayer.BuildRects(rects, opts)

	type shape struct {
		name string
		q    twolayer.Query
	}
	var shapes []shape
	for i := 0; i < 25; i++ {
		x, y := rnd.Float64(), rnd.Float64()
		w := twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.3, MaxY: y + 0.3}
		shapes = append(shapes, shape{fmt.Sprintf("window-%d", i), twolayer.Query{Window: &w}})
	}
	// Thin full-width bands force maximal fan-out; the full space hits
	// every shard and every object.
	for i := 0; i < 5; i++ {
		y := rnd.Float64()
		w := twolayer.Rect{MinX: 0, MinY: y, MaxX: 1, MaxY: y + 0.02}
		shapes = append(shapes, shape{fmt.Sprintf("band-%d", i), twolayer.Query{Window: &w}})
	}
	all := twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1.1, MaxY: 1.1}
	shapes = append(shapes, shape{"full-space", twolayer.Query{Window: &all}})
	for i := 0; i < 20; i++ {
		d := twolayer.Disk{
			Center: twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()},
			Radius: 0.05 + rnd.Float64()*0.25,
		}
		shapes = append(shapes, shape{fmt.Sprintf("disk-%d", i), twolayer.Query{Disk: &d}})
	}

	for _, shards := range shardCountsUnderTest() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sh := twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
			if sh.Len() != oracle.Len() {
				t.Fatalf("Len = %d, want %d", sh.Len(), oracle.Len())
			}
			for _, sc := range shapes {
				want, err := oracle.SearchIDs(sc.q, nil)
				if err != nil {
					t.Fatalf("%s: oracle: %v", sc.name, err)
				}
				got, err := sh.SearchIDs(sc.q, nil)
				if err != nil {
					t.Fatalf("%s: sharded: %v", sc.name, err)
				}
				sameIDs(t, sc.name, sorted(got), sorted(want))

				n, err := sh.SearchCount(sc.q)
				if err != nil {
					t.Fatalf("%s: count: %v", sc.name, err)
				}
				if n != len(want) {
					t.Fatalf("%s: count = %d, want %d", sc.name, n, len(want))
				}

				// A limit caps both streamed results and counts at exactly
				// min(limit, total), and reports the query incomplete when it
				// bites.
				if len(want) > 1 {
					lim := sc.q
					lim.Limit = len(want) / 2
					ids, err := sh.SearchIDs(lim, nil)
					if err != nil {
						t.Fatalf("%s: limited: %v", sc.name, err)
					}
					if len(ids) != lim.Limit {
						t.Fatalf("%s: limited returned %d, want %d", sc.name, len(ids), lim.Limit)
					}
					cn, err := sh.SearchCount(lim)
					if err != nil || cn != lim.Limit {
						t.Fatalf("%s: limited count = %d (err %v), want %d", sc.name, cn, err, lim.Limit)
					}
					complete, err := sh.Search(lim, func(twolayer.ID, twolayer.Rect) bool { return true })
					if err != nil || complete {
						t.Fatalf("%s: limited query reported complete=%v err=%v", sc.name, complete, err)
					}
				}
			}

			// kNN merges to the same (ID, Dist) sequence as the single
			// index: the k-way heap tie-breaks by ID like core does.
			for i := 0; i < 10; i++ {
				p := twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()}
				sameNeighbors(t, fmt.Sprintf("knn-%d", i), sh.KNN(p, 17), oracle.KNN(p, 17))
			}

			// The engine's own counters must classify the traffic: the full
			// sweep above certainly fanned out (unless there is one shard).
			st := sh.Stats()
			if shards > 1 && st.Fanout == 0 {
				t.Error("no fan-out queries recorded despite full-space windows")
			}
			if got := len(st.PerShard); got != sh.Shards() {
				t.Errorf("Stats().PerShard has %d entries, engine has %d shards", got, sh.Shards())
			}
		})
	}
}

// TestShardedExactEquivalence checks exact-geometry refinement through
// the scatter-gather path: triangles whose MBRs overstate them, so the
// refinement step actually rejects candidates.
func TestShardedExactEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	geoms := make([]twolayer.Geometry, 800)
	for i := range geoms {
		x, y := rnd.Float64(), rnd.Float64()
		geoms[i] = twolayer.NewPolygon(
			twolayer.Point{X: x, Y: y},
			twolayer.Point{X: x + rnd.Float64()*0.1, Y: y + rnd.Float64()*0.02},
			twolayer.Point{X: x + rnd.Float64()*0.02, Y: y + rnd.Float64()*0.1},
		)
	}
	opts := twolayer.Options{GridSize: 24}
	oracle := twolayer.BuildGeoms(geoms, opts)

	for _, shards := range shardCountsUnderTest() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sh := twolayer.BuildShardedGeoms(geoms, opts, twolayer.ShardedOptions{Shards: shards})
			if !sh.HasExactGeometries() {
				t.Fatal("HasExactGeometries = false after BuildShardedGeoms")
			}
			modes := []twolayer.RefineMode{twolayer.RefineSimple, twolayer.RefineAvoid, twolayer.RefineAvoidPlus}
			for i := 0; i < 15; i++ {
				x, y := rnd.Float64(), rnd.Float64()
				w := twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.4, MaxY: y + 0.4}
				d := twolayer.Disk{
					Center: twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()},
					Radius: 0.05 + rnd.Float64()*0.3,
				}
				for _, mode := range modes {
					for _, q := range []twolayer.Query{
						{Window: &w, Exact: true, Mode: mode},
						{Disk: &d, Exact: true, Mode: mode},
					} {
						want, err := oracle.SearchIDs(q, nil)
						if err != nil {
							t.Fatalf("oracle: %v", err)
						}
						got, err := sh.SearchIDs(q, nil)
						if err != nil {
							t.Fatalf("sharded: %v", err)
						}
						sameIDs(t, fmt.Sprintf("exact-%d mode=%d", i, mode), sorted(got), sorted(want))
					}
				}
			}
			p := twolayer.Point{X: 0.5, Y: 0.5}
			sameNeighbors(t, "KNNExact", sh.KNNExact(p, 9), oracle.KNNExact(p, 9))
		})
	}
}

// TestShardedBatchCounts checks the batched counting path against the
// unsharded batch kernels across the shard-count sweep.
func TestShardedBatchCounts(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	rects := randRects(rnd, 2000, 0.05)
	opts := twolayer.Options{GridSize: 32}
	oracle := twolayer.BuildRects(rects, opts)

	var windows []twolayer.Rect
	var disks []twolayer.Disk
	for i := 0; i < 20; i++ {
		x, y := rnd.Float64(), rnd.Float64()
		windows = append(windows, twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.25, MaxY: y + 0.25})
		disks = append(disks, twolayer.Disk{
			Center: twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()},
			Radius: rnd.Float64() * 0.2,
		})
	}
	wantW := oracle.BatchWindowCounts(windows, twolayer.QueriesBased, 4)
	wantD := oracle.BatchDiskCounts(disks, twolayer.QueriesBased, 4)

	for _, shards := range shardCountsUnderTest() {
		sh := twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
		if got := sh.BatchWindowCounts(windows, twolayer.QueriesBased, 4); !slices.Equal(got, wantW) {
			t.Fatalf("shards=%d: window counts = %v, want %v", shards, got, wantW)
		}
		if got := sh.BatchDiskCounts(disks, twolayer.QueriesBased, 4); !slices.Equal(got, wantD) {
			t.Fatalf("shards=%d: disk counts = %v, want %v", shards, got, wantD)
		}
	}
}

// TestShardedSearchValidation pins descriptor validation and early
// termination on the sharded surface.
func TestShardedSearchValidation(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	rects := randRects(rnd, 500, 0.05)
	sh := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 4})

	if _, err := sh.Search(twolayer.Query{}, func(twolayer.ID, twolayer.Rect) bool { return true }); err == nil {
		t.Error("shapeless query accepted")
	}
	w := twolayer.Rect{MaxX: 1, MaxY: 1}
	d := twolayer.Disk{Radius: 1}
	if _, err := sh.SearchCount(twolayer.Query{Window: &w, Disk: &d}); err == nil {
		t.Error("two-shape query accepted")
	}
	if _, err := sh.SearchIDs(twolayer.Query{Window: &w, Limit: -1}, nil); err == nil {
		t.Error("negative limit accepted")
	}
	// A live snapshot drops the dataset, so it cannot refine.
	sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil,
		twolayer.Options{GridSize: 8, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.ShardedOptions{Shards: 2}), twolayer.LiveOptions{})
	defer sl.Close()
	if _, err := sl.Snapshot().SearchCount(twolayer.Query{Window: &w, Exact: true}); err == nil {
		t.Error("exact query accepted on a snapshot without geometries")
	}
	// fn stopping the scan reports an incomplete query.
	complete, err := sh.Search(twolayer.Query{Window: &w}, func(twolayer.ID, twolayer.Rect) bool { return false })
	if err != nil || complete {
		t.Errorf("early-stopped query: complete=%v err=%v", complete, err)
	}

	// Traced views capture one span per shard scanned.
	view := sh.Traced()
	if _, err := view.SearchCount(twolayer.Query{Window: &w}); err != nil {
		t.Fatal(err)
	}
	if len(view.Spans) == 0 {
		t.Error("traced view recorded no spans")
	}
	for _, sp := range view.Spans {
		if sp.Shard < 0 || sp.Shard >= sh.Shards() {
			t.Errorf("span names shard %d of %d", sp.Shard, sh.Shards())
		}
	}
}

// TestBatchStrategySymmetry pins the strategy/threads handling of the
// window and disk batch kernels to be symmetric: an unknown strategy
// falls back to the default, and non-positive thread counts resolve to
// the same results as the explicit defaults — for both shapes.
func TestBatchStrategySymmetry(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	rects := randRects(rnd, 1500, 0.05)
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 32})

	var windows []twolayer.Rect
	var disks []twolayer.Disk
	for i := 0; i < 24; i++ {
		x, y := rnd.Float64(), rnd.Float64()
		windows = append(windows, twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.2, MaxY: y + 0.2})
		disks = append(disks, twolayer.Disk{
			Center: twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()},
			Radius: rnd.Float64() * 0.15,
		})
	}
	wantW := idx.BatchWindowCounts(windows, twolayer.QueriesBased, 4)
	wantD := idx.BatchDiskCounts(disks, twolayer.QueriesBased, 4)

	variants := []struct {
		name     string
		strategy twolayer.BatchStrategy
		threads  int
	}{
		{"tiles-based", twolayer.TilesBased, 4},
		{"unknown-strategy", twolayer.BatchStrategy(99), 4},
		{"zero-threads", twolayer.QueriesBased, 0},
		{"negative-threads", twolayer.TilesBased, -3},
	}
	for _, v := range variants {
		gotW := idx.BatchWindowCounts(windows, v.strategy, v.threads)
		gotD := idx.BatchDiskCounts(disks, v.strategy, v.threads)
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Errorf("%s: window %d count = %d, want %d", v.name, i, gotW[i], wantW[i])
			}
		}
		for i := range wantD {
			if gotD[i] != wantD[i] {
				t.Errorf("%s: disk %d count = %d, want %d", v.name, i, gotD[i], wantD[i])
			}
		}
	}
}

// TestShardedLiveMutateWhileQuery is the -race stress test: writers
// stream mutation batches through a ShardedLive while readers pin
// snapshots and query them, then the final contents are checked against
// the deterministic expected set.
func TestShardedLiveMutateWhileQuery(t *testing.T) {
	sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil,
		twolayer.Options{GridSize: 16, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.ShardedOptions{Shards: 4}), twolayer.LiveOptions{})
	defer sl.Close()

	const writers = 4
	const perWriter = 300
	rectFor := func(id int) twolayer.Rect {
		rnd := rand.New(rand.NewSource(int64(id)))
		x, y := rnd.Float64(), rnd.Float64()
		return twolayer.Rect{MinX: x, MinY: y, MaxX: x + rnd.Float64()*0.3, MaxY: y + rnd.Float64()*0.05}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: pin a snapshot, query it, check internal consistency.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := sl.Snapshot()
				w := twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
				ids, err := snap.SearchIDs(twolayer.Query{Window: &w}, nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				seen := make(map[twolayer.ID]bool, len(ids))
				for _, id := range ids {
					if seen[id] {
						t.Errorf("reader: duplicate ID %d in snapshot", id)
						return
					}
					seen[id] = true
				}
				snap.KNN(twolayer.Point{X: rnd.Float64(), Y: rnd.Float64()}, 5)
			}
		}(r)
	}

	// Writers: insert this writer's ID range in batches, then delete
	// every third object, mixing Apply with single-op Insert/Delete.
	var werr sync.Map
	var ww sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		ww.Add(1)
		go func(wtr int) {
			defer ww.Done()
			base := wtr * perWriter
			var batch []twolayer.Mutation
			for i := 0; i < perWriter; i++ {
				id := base + i
				batch = append(batch, twolayer.Mutation{ID: twolayer.ID(id), MBR: rectFor(id)})
				if len(batch) == 32 {
					if _, err := sl.Apply(batch); err != nil {
						werr.Store(wtr, err)
						return
					}
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				if _, err := sl.Apply(batch); err != nil {
					werr.Store(wtr, err)
					return
				}
			}
			for i := 0; i < perWriter; i += 3 {
				id := base + i
				found, _, err := sl.Delete(twolayer.ID(id), rectFor(id))
				if err != nil {
					werr.Store(wtr, err)
					return
				}
				if !found {
					werr.Store(wtr, fmt.Errorf("delete of %d found nothing", id))
					return
				}
			}
		}(wtr)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	werr.Range(func(k, v any) bool {
		t.Fatalf("writer %v: %v", k, v)
		return false
	})

	// Quiesced: the surviving set is exactly the IDs not divisible by 3
	// within each writer's range.
	var want []twolayer.ID
	for wtr := 0; wtr < writers; wtr++ {
		for i := 0; i < perWriter; i++ {
			if i%3 != 0 {
				want = append(want, twolayer.ID(wtr*perWriter+i))
			}
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	snap := sl.Snapshot()
	if snap.Len() != len(want) {
		t.Fatalf("final Len = %d, want %d", snap.Len(), len(want))
	}
	if sl.Len() != len(want) {
		t.Fatalf("live Len = %d, want %d", sl.Len(), len(want))
	}
	w := twolayer.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	got, err := snap.SearchIDs(twolayer.Query{Window: &w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "final contents", sorted(got), want)
}

// TestShardedLiveMoveSeenOnce: while a writer moves one object back and
// forth across a slab edge, each move one Apply of a delete and an
// insert, every full-space SearchIDs and SearchCount sees the object
// exactly once: a batch that spans shards is published whole, in one
// snapshot of every shard.
func TestShardedLiveMoveSeenOnce(t *testing.T) {
	unit := twolayer.Rect{MaxX: 1, MaxY: 1}
	all := twolayer.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := twolayer.Options{GridSize: 64, Space: unit}
			sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil, opts,
				twolayer.ShardedOptions{Shards: shards}), twolayer.LiveOptions{})
			defer sl.Close()
			edge := 0.5 // shard 1's first column, 64/S of 64
			if shards > 1 {
				edge = float64(64/shards) / 64
			}
			at := [2]twolayer.Rect{
				{MinX: edge - 0.01, MinY: 0.5, MaxX: edge - 0.005, MaxY: 0.505},
				{MinX: edge + 0.005, MinY: 0.5, MaxX: edge + 0.01, MaxY: 0.505},
			}
			if _, err := sl.Insert(1, at[0]); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var bad [2]string
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var ids []twolayer.ID
					for reads := 0; ; reads++ {
						select {
						case <-stop:
							return
						default:
						}
						snap := sl.Snapshot()
						n := 0
						if r == 0 {
							ids, _ = snap.SearchIDs(twolayer.Query{Window: &all}, ids[:0])
							n = len(ids)
						} else {
							n, _ = snap.SearchCount(twolayer.Query{Window: &all})
						}
						if n != 1 {
							bad[r] = fmt.Sprintf("read %d at epoch %d saw the object %d times", reads, snap.Epoch(), n)
							return
						}
					}
				}(r)
			}
			deadline := time.Now().Add(200 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := sl.Apply([]twolayer.Mutation{
					{Delete: true, ID: 1, MBR: at[i%2]},
					{ID: 1, MBR: at[(i+1)%2]},
				}); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			for r, msg := range bad {
				if msg != "" {
					t.Errorf("%s reader: %s", []string{"SearchIDs", "SearchCount"}[r], msg)
				}
			}
		})
	}
}

// TestShardedLiveFromAndSnapshot covers promotion of a built engine to
// a live one and read-your-writes visibility through snapshots.
func TestShardedLiveFromAndSnapshot(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	rects := randRects(rnd, 400, 0.05)
	sh := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 3})
	sl := twolayer.ShardedLiveFrom(sh, twolayer.LiveOptions{})
	defer sl.Close()

	if sl.Len() != len(rects) {
		t.Fatalf("Len after promote = %d, want %d", sl.Len(), len(rects))
	}
	if sl.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", sl.Shards())
	}

	// A boundary-straddling insert must be visible exactly once.
	wide := twolayer.Rect{MinX: 0.01, MinY: 0.4, MaxX: 0.99, MaxY: 0.41}
	if _, err := sl.Insert(twolayer.ID(9999), wide); err != nil {
		t.Fatal(err)
	}
	snap := sl.Snapshot()
	n := 0
	if _, err := snap.Search(twolayer.Query{Window: &wide}, func(id twolayer.ID, _ twolayer.Rect) bool {
		if id == 9999 {
			n++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("inserted object surfaced %d times, want once", n)
	}

	found, _, err := sl.Delete(twolayer.ID(9999), wide)
	if err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if sl.Len() != len(rects) {
		t.Fatalf("Len after delete = %d, want %d", sl.Len(), len(rects))
	}

	st := sl.Snapshot().Stats()
	if len(st.PerShard) != 3 {
		t.Fatalf("Stats has %d shards, want 3", len(st.PerShard))
	}
}

// TestShardedDurableRecovery exercises the sharded WAL round trip: seed,
// mutate, close, reopen (with a seed of another layout — the manifest
// must win), and verify the recovered contents.
func TestShardedDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(6))
	rects := randRects(rnd, 600, 0.05)
	seed := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 3})

	d, info, err := twolayer.OpenDurable(
		twolayer.Options{GridSize: 16},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: dir, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded || info.ReplayedRecords != 0 {
		t.Fatalf("cold open RecoveryInfo = %+v, want the seed checkpointed and nothing replayed", info)
	}
	var muts []twolayer.Mutation
	for i := 0; i < 50; i++ {
		id := 10000 + i
		x := rnd.Float64()
		muts = append(muts, twolayer.Mutation{
			ID:  twolayer.ID(id),
			MBR: twolayer.Rect{MinX: x, MinY: 0.2, MaxX: x + 0.4, MaxY: 0.25},
		})
	}
	if _, err := d.Live().Apply(muts); err != nil {
		t.Fatal(err)
	}
	// Delete a seeded object too, so recovery replays both kinds.
	if found, _, err := d.Live().Delete(twolayer.ID(0), rects[0]); err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	wantLen := len(rects) + len(muts) - 1
	if d.Live().Len() != wantLen {
		t.Fatalf("Len before close = %d, want %d", d.Live().Len(), wantLen)
	}
	w := twolayer.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	want, err := d.Snapshot().SearchIDs(twolayer.Query{Window: &w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = sorted(want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with an 8-shard seed: the manifest's 3-shard layout wins.
	other := twolayer.BuildShardedRects(rects[:10], twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 8})
	d2, info, err := twolayer.OpenDurable(
		twolayer.Options{},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: dir, Seed: other},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Live().Shards(); got != 3 {
		t.Fatalf("reopened with %d shards, manifest pins 3", got)
	}
	// One log: the bulk and the delete are one frame each.
	if info.ReplayedRecords != 2 || info.ReplayedMutations != len(muts)+1 || info.Epoch != 2 {
		t.Errorf("RecoveryInfo = %+v, want 2 frames of %d mutations replayed up to epoch 2", info, len(muts)+1)
	}
	if d2.Live().Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", d2.Live().Len(), wantLen)
	}
	got, err := d2.Snapshot().SearchIDs(twolayer.Query{Window: &w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "recovered contents", sorted(got), want)

	if st := d2.Stats(); !st.Recovery.CheckpointLoaded {
		t.Error("Stats().Recovery reports no checkpoint loaded despite the seed")
	}

	// The on-disk layout is one manifest beside one log, with no
	// directory per shard.
	if _, err := os.Stat(filepath.Join(dir, "shards.json")); err != nil {
		t.Errorf("manifest missing: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shardDirs, segments := 0, 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			shardDirs++
		}
		if strings.HasPrefix(e.Name(), "wal-") {
			segments++
		}
	}
	if shardDirs != 0 || segments == 0 {
		t.Errorf("found %d shard-* dirs and %d log segments, want none and one log", shardDirs, segments)
	}
}

// TestShardedConstructorValidation pins the constructor error paths.
func TestShardedConstructorValidation(t *testing.T) {
	if _, _, err := twolayer.OpenDurable(
		twolayer.Options{GridSize: 8},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: t.TempDir()},
	); err == nil {
		t.Error("OpenDurable on an empty dir without Space or Seed succeeded")
	}
	// Shard counts clamp: more shards than grid columns degrades to NX.
	rnd := rand.New(rand.NewSource(2))
	sh := twolayer.BuildShardedRects(randRects(rnd, 100, 0.1),
		twolayer.Options{GridSize: 4}, twolayer.ShardedOptions{Shards: 64})
	if sh.Shards() > 4 {
		t.Errorf("Shards = %d, want <= grid columns (4)", sh.Shards())
	}
	// Zero/negative resolve to one shard.
	for _, n := range []int{0, -3} {
		sh = twolayer.BuildShardedRects(randRects(rnd, 100, 0.1),
			twolayer.Options{GridSize: 64}, twolayer.ShardedOptions{Shards: n})
		if sh.Shards() != 1 {
			t.Errorf("Shards(%d) = %d, want 1", n, sh.Shards())
		}
	}
}
