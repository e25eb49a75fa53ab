package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestBatchStrategiesAgree: queries-based and tiles-based must produce the
// same per-query result sets, serial and parallel, matching one-at-a-time
// evaluation.
func TestBatchStrategiesAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 16, NY: 16})

	queries := make([]geom.Rect, 200)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.2)
	}

	want := make([][]spatial.ID, len(queries))
	for i, w := range queries {
		want[i] = sortIDs(windowIDs(ix, w))
	}

	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		for _, threads := range []int{1, 4} {
			got := make([][]spatial.ID, len(queries))
			var mu sync.Mutex
			ix.BatchWindow(queries, strategy, threads, func(q int, e spatial.Entry) {
				mu.Lock()
				got[q] = append(got[q], e.ID)
				mu.Unlock()
			})
			for i := range queries {
				context := strategy.String()
				sameIDs(t, got[i], want[i], context)
			}
		}
	}
}

// TestBatchWindowCounts checks the count aggregation helper and that
// counts match brute force.
func TestBatchWindowCounts(t *testing.T) {
	rnd := rand.New(rand.NewSource(62))
	ix, d := buildRandom(rnd, 1000, 0.08, Options{NX: 8, NY: 8})
	queries := make([]geom.Rect, 60)
	for i := range queries {
		queries[i] = randWindow(rnd, 0.3)
	}
	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		counts := ix.BatchWindowCounts(queries, strategy, 3)
		for i, w := range queries {
			if want := len(spatial.BruteWindow(d.Entries, w)); counts[i] != want {
				t.Fatalf("%v: query %d count %d, want %d", strategy, i, counts[i], want)
			}
		}
	}
}

// TestBatchEmptyInputs: no queries, and queries that miss the space.
func TestBatchEmptyInputs(t *testing.T) {
	rnd := rand.New(rand.NewSource(63))
	ix, _ := buildRandom(rnd, 100, 0.1, Options{NX: 4, NY: 4})
	if got := ix.BatchWindowCounts(nil, TilesBased, 2); len(got) != 0 {
		t.Error("nil queries should return empty counts")
	}
	miss := []geom.Rect{{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}}
	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		if got := ix.BatchWindowCounts(miss, strategy, 2); got[0] != 0 {
			t.Errorf("%v: out-of-space query returned %d", strategy, got[0])
		}
	}
}

// TestBatchStrategyString covers the Stringer.
func TestBatchStrategyString(t *testing.T) {
	if QueriesBased.String() != "queries-based" || TilesBased.String() != "tiles-based" {
		t.Error("BatchStrategy.String wrong")
	}
}

// TestBatchDefaultThreads: threads <= 0 must select DefaultThreads and still be
// correct.
func TestBatchDefaultThreads(t *testing.T) {
	rnd := rand.New(rand.NewSource(64))
	ix, d := buildRandom(rnd, 500, 0.05, Options{NX: 8, NY: 8})
	queries := []geom.Rect{randWindow(rnd, 0.4), randWindow(rnd, 0.1)}
	counts := ix.BatchWindowCounts(queries, TilesBased, 0)
	for i, w := range queries {
		if want := len(spatial.BruteWindow(d.Entries, w)); counts[i] != want {
			t.Fatalf("query %d count %d, want %d", i, counts[i], want)
		}
	}
}

// batchQueries is the input of the batch equivalence matrix: random
// windows and disks plus the shapes a batch must survive — an inverted
// window, one missing the space, a point window, the whole space, a
// negative radius, a zero radius and a disk swallowing the grid.
func batchQueries(rnd *rand.Rand, n int) ([]geom.Rect, []geom.Disk) {
	windows := []geom.Rect{
		{MinX: 0.2, MinY: 0.2, MaxX: 0.1, MaxY: 0.1},
		{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},
		{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
	}
	disks := []geom.Disk{
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: -1},
		{Center: geom.Point{X: 0.3, Y: 0.7}, Radius: 0},
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 3},
	}
	for i := 0; i < n; i++ {
		windows = append(windows, randWindow(rnd, 0.4))
		disks = append(disks, geom.Disk{
			Center: geom.Point{X: rnd.Float64()*1.2 - 0.1, Y: rnd.Float64()*1.2 - 0.1},
			Radius: rnd.Float64() * 0.3,
		})
	}
	return windows, disks
}

// mutatedSnapshot returns a copy-on-write snapshot of a decomposed index
// over rects after deletes and inserts, with the entries it now holds:
// the first write dropped both derived read tables (the count prefix
// table and the 2-layer+ side table) while the seed kept its own, the
// state a Live index over a decomposed seed serves after its first
// writes.
func mutatedSnapshot(t *testing.T, rnd *rand.Rand, rects []geom.Rect) (*Index, []spatial.Entry) {
	t.Helper()
	d := spatial.NewDataset(rects)
	seed := Build(d, Options{NX: 32, NY: 32, Space: unitSquare, Decompose: true})
	ix := seed.CloneCOW()
	var entries []spatial.Entry
	for i, e := range d.Entries {
		if i%7 == 0 {
			if !ix.Delete(e.ID, e.Rect) {
				t.Fatalf("delete of %d found nothing", e.ID)
			}
			continue
		}
		entries = append(entries, e)
	}
	for i, r := range randRects(rnd, 200, 0.05) {
		e := spatial.Entry{ID: spatial.ID(len(rects) + i), Rect: r}
		ix.Insert(e)
		entries = append(entries, e)
	}
	if ix.counts != nil || ix.Decomposed() || seed.counts == nil || !seed.Decomposed() {
		t.Fatalf("read tables after writes: snapshot counts %v dec %v, seed counts %v dec %v; want the snapshot's dropped and the seed's kept",
			ix.counts != nil, ix.Decomposed(), seed.counts != nil, seed.Decomposed())
	}
	return ix, entries
}

// TestBatchCountsEquivalence is the one equivalence matrix of the
// counted batch forms: on every index variant the kernels must agree on
// (kernelConfigs) and on a snapshot taken after mutations,
// BatchWindowCounts and BatchDiskCounts under both strategies and at
// thread counts below, at and above the batch size equal the per-query
// counts streamed through BatchWindow/BatchDisk and the naive scan.
func TestBatchCountsEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(2201))
	rects := randRects(rnd, 3000, 0.03)
	type variant struct {
		ix      *Index
		entries []spatial.Entry
	}
	variants := map[string]variant{}
	for name, ix := range kernelConfigsOver(t, rects) {
		variants[name] = variant{ix, spatial.NewDataset(rects).Entries}
	}
	mut, mutEntries := mutatedSnapshot(t, rnd, rects)
	variants["mutated-snapshot"] = variant{mut, mutEntries}

	windows, disks := batchQueries(rnd, 40)
	batches := []struct {
		name    string
		windows []geom.Rect
		disks   []geom.Disk
	}{
		{"full", windows, disks},
		{"three", windows[:3], disks[:3]}, // fewer queries than most thread counts
		{"empty", nil, nil},
	}
	for name, v := range variants {
		for _, b := range batches {
			wantW := make([]int, len(b.windows))
			for i, w := range b.windows {
				if w.Valid() { // an inverted window matches nothing
					wantW[i] = len(spatial.BruteWindow(v.entries, w))
				}
			}
			wantD := make([]int, len(b.disks))
			for i, d := range b.disks {
				if d.Radius >= 0 { // a negative radius matches nothing
					wantD[i] = len(spatial.BruteDisk(v.entries, d.Center, d.Radius))
				}
			}
			for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
				for _, threads := range []int{1, 2, 8} {
					ctx := fmt.Sprintf("%s/%s/%v/threads=%d", name, b.name, strategy, threads)
					gotW := make([]atomic.Int64, len(b.windows))
					v.ix.BatchWindow(b.windows, strategy, threads, func(q int, _ spatial.Entry) { gotW[q].Add(1) })
					gotD := make([]atomic.Int64, len(b.disks))
					v.ix.BatchDisk(b.disks, strategy, threads, func(q int, _ spatial.Entry) { gotD[q].Add(1) })
					for q := range gotW {
						if int(gotW[q].Load()) != wantW[q] {
							t.Fatalf("%s: BatchWindow streamed %d results for window %d, naive scan has %d",
								ctx, gotW[q].Load(), q, wantW[q])
						}
					}
					for q := range gotD {
						if int(gotD[q].Load()) != wantD[q] {
							t.Fatalf("%s: BatchDisk streamed %d results for disk %d, naive scan has %d",
								ctx, gotD[q].Load(), q, wantD[q])
						}
					}
					if got := v.ix.BatchWindowCounts(b.windows, strategy, threads); !slices.Equal(got, wantW) {
						t.Fatalf("%s: BatchWindowCounts = %v, want %v", ctx, got, wantW)
					}
					if got := v.ix.BatchDiskCounts(b.disks, strategy, threads); !slices.Equal(got, wantD) {
						t.Fatalf("%s: BatchDiskCounts = %v, want %v", ctx, got, wantD)
					}
				}
			}
		}
	}
}

// TestBatchCountsFilteredEquivalence checks the per-query MinX filter
// the sharded engine pushes into a counted batch against a filtered
// streamed reference, with bounds that keep, reject and split each
// window's matches.
func TestBatchCountsFilteredEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(2202))
	rects := randRects(rnd, 3000, 0.03)
	variants := kernelConfigsOver(t, rects)
	variants["mutated-snapshot"], _ = mutatedSnapshot(t, rnd, rects)
	windows, _ := batchQueries(rnd, 40)
	bounds := []float64{math.Inf(-1), -1, 0, 0.25, 0.499999, 0.5, 0.75, 1, 2}
	minX := func(q int) float64 { return bounds[q%len(bounds)] }
	for name, ix := range variants {
		want := make([]int, len(windows))
		ix.BatchWindow(windows, QueriesBased, 1, func(q int, e spatial.Entry) {
			if e.Rect.MinX >= minX(q) {
				want[q]++
			}
		})
		for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
			for _, threads := range []int{1, 2, 8} {
				if got := ix.BatchWindowCountsFiltered(windows, minX, strategy, threads); !slices.Equal(got, want) {
					t.Fatalf("%s/%v/threads=%d: BatchWindowCountsFiltered = %v, want %v",
						name, strategy, threads, got, want)
				}
			}
		}
	}
}

// TestBatchCountsOnStatsView pins that a Stats view leaves a counted
// batch on the count kernels at any thread count: at threads=2, under
// either strategy, the view's batch returns the plain batch's counts,
// its Stats' Results are their sum, and the engine's totals advance
// exactly as they do without the view, by the view's Stats. Run it with -race: the
// workers count into tallies of their own, merged once at the end.
func TestBatchCountsOnStatsView(t *testing.T) {
	rnd := rand.New(rand.NewSource(2203))
	ix, _ := buildRandom(rnd, 3000, 0.03, Options{NX: 16, NY: 16, Space: unitSquare, Decompose: true})
	windows, disks := batchQueries(rnd, 30)
	for _, strategy := range []BatchStrategy{QueriesBased, TilesBased} {
		p0 := ix.QueryStats()
		wantW := ix.BatchWindowCounts(windows, strategy, 2)
		wantD := ix.BatchDiskCounts(disks, strategy, 2)
		p1 := ix.QueryStats()
		var s Stats
		view := ix.View(&s)
		gotW := view.BatchWindowCounts(windows, strategy, 2)
		gotD := view.BatchDiskCounts(disks, strategy, 2)
		p2 := ix.QueryStats()
		if !slices.Equal(gotW, wantW) || !slices.Equal(gotD, wantD) {
			t.Fatalf("%v: view counts %v %v, want %v %v", strategy, gotW, gotD, wantW, wantD)
		}
		sum := 0
		for _, n := range append(wantW, wantD...) {
			sum += n
		}
		if s.Results != int64(sum) || sum == 0 {
			t.Errorf("%v: view Results = %d, want the counts' sum %d", strategy, s.Results, sum)
		}
		plain, viewed := statsDelta(p0, p1), statsDelta(p1, p2)
		if viewed != plain {
			t.Errorf("%v: engine totals moved by %+v under the view, %+v without", strategy, viewed, plain)
		}
		if s != viewed {
			t.Errorf("%v: view Stats %+v, engine totals moved by %+v", strategy, s, viewed)
		}
		if viewed.Queries != 2 {
			t.Errorf("%v: Queries moved by %d, want one per batch (2)", strategy, viewed.Queries)
		}
		if want := int64(len(windows) + len(disks)); viewed.FastCounts != want {
			t.Errorf("%v: FastCounts moved by %d, want one per query (%d)", strategy, viewed.FastCounts, want)
		}
	}
}

// TestBatchWorkersClamped: a batch never starts more workers than it
// has tasks (queries, or non-empty tiles), whatever threads asks for,
// and a batch with one task runs on the caller's goroutine.
func TestBatchWorkersClamped(t *testing.T) {
	rnd := rand.New(rand.NewSource(2204))
	ix, _ := buildRandom(rnd, 2000, 0.02, Options{NX: 16, NY: 16, Space: unitSquare})
	three := []geom.Rect{randWindow(rnd, 0.2), randWindow(rnd, 0.2), unitSquare}
	oneTile := []geom.Rect{{MinX: 0.51, MinY: 0.51, MaxX: 0.52, MaxY: 0.52}}
	cases := []struct {
		name     string
		queries  []geom.Rect
		strategy BatchStrategy
		max      int // goroutines above the baseline
	}{
		{"three queries", three, QueriesBased, 3},
		{"one query", three[:1], QueriesBased, 0},
		{"one tile", oneTile, TilesBased, 0},
	}
	for _, c := range cases {
		baseline := runtime.NumGoroutine()
		var peak atomic.Int64
		ix.BatchWindow(c.queries, c.strategy, 64, func(int, spatial.Entry) {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n) // racy max: only ever understates the peak
			}
		})
		if peak.Load() == 0 {
			t.Fatalf("%s: no result observed", c.name)
		}
		// Only growth is a failure: a goroutine an earlier test left
		// winding down may exit meanwhile.
		if got := int(peak.Load()) - baseline; got > c.max {
			t.Errorf("%s with threads=64: %d goroutines above the baseline, want at most %d", c.name, got, c.max)
		}
	}
}

// TestBatchTilesAccumulationIsOffsets is the allocation guard of the
// tiles-based scheduler: the per-tile accumulation is offsets into one
// slab, so a one-query batch on a 1024x1024 grid with over 400K occupied
// tiles allocates a few bytes per tile, not a slice header (24 bytes,
// with a pointer for the collector to scan) per tile.
func TestBatchTilesAccumulationIsOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1024x1024 index")
	}
	rnd := rand.New(rand.NewSource(2205))
	ix, _ := buildRandom(rnd, 600_000, 0.0005, Options{NX: 1024, NY: 1024, Space: unitSquare})
	if ix.numTiles < 400_000 {
		t.Fatalf("only %d occupied tiles, the guard needs 400K", ix.numTiles)
	}
	limit := uint64(8*ix.numTiles + 64<<10)
	window := []geom.Rect{{MinX: 0.5, MinY: 0.5, MaxX: 0.505, MaxY: 0.505}}
	disk := []geom.Disk{{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.003}}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := allocated(func() { ix.BatchWindowCounts(window, TilesBased, 1) }); got > limit {
		t.Errorf("one-window tiles-based batch allocated %d bytes over %d tiles, want at most %d", got, ix.numTiles, limit)
	}
	if got := allocated(func() { ix.BatchDiskCounts(disk, TilesBased, 1) }); got > limit {
		t.Errorf("one-disk tiles-based batch allocated %d bytes over %d tiles, want at most %d", got, ix.numTiles, limit)
	}
}
