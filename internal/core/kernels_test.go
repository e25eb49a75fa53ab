package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// kernelConfigs builds the index variants the adaptive kernels must stay
// equivalent on: plain grids coarse enough that random windows cover
// interior tiles, a decomposed (2-layer+) build, Stats-attached views
// (which pin the instrumented fallback path) and Live snapshots. The
// 32- and 64-tile-wide variants can cover 1024 tiles and more, the sizes
// TestLargeWindowEquivalence needs.
func kernelConfigs(t *testing.T, rnd *rand.Rand, n int) map[string]*Index {
	t.Helper()
	return kernelConfigsOver(t, randRects(rnd, n, 0.03))
}

func kernelConfigsOver(t *testing.T, rects []geom.Rect) map[string]*Index {
	t.Helper()
	d := spatial.NewDataset(rects)
	liveSnap := func(n int) *Index {
		l := NewLive(New(Options{NX: n, NY: n, Space: unitSquare}), LiveOptions{})
		t.Cleanup(l.Close)
		for i, r := range rects {
			if _, err := l.Insert(spatial.Entry{ID: spatial.ID(i), Rect: r}); err != nil {
				t.Fatalf("live insert: %v", err)
			}
		}
		return l.Snapshot()
	}
	return map[string]*Index{
		"plain-8x8":        Build(d, Options{NX: 8, NY: 8, Space: unitSquare}),
		"plain-64x64":      Build(d, Options{NX: 64, NY: 64, Space: unitSquare}),
		"decomposed-8x8":   Build(d, Options{NX: 8, NY: 8, Space: unitSquare, Decompose: true}),
		"decomposed-64":    Build(d, Options{NX: 64, NY: 64, Space: unitSquare, Decompose: true}),
		"sparse-dir":       Build(d, Options{NX: 32, NY: 32, Space: unitSquare, SparseDirectory: true}),
		"stats-view-8x8":   Build(d, Options{NX: 8, NY: 8, Space: unitSquare}).View(&Stats{}),
		"stats-view-64x64": Build(d, Options{NX: 64, NY: 64, Space: unitSquare}).View(&Stats{}),
		"live-snap-16x16":  liveSnap(16),
		"live-snap-64x64":  liveSnap(64),
	}
}

// TestWindowCountFastEquivalence checks the count pushdown against the
// streamed reference on every index variant, including whole-space
// windows (all-interior covers) and degenerate ones.
func TestWindowCountFastEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	cfgs := kernelConfigs(t, rnd, 4000)
	windows := make([]geom.Rect, 0, 64)
	for i := 0; i < 50; i++ {
		windows = append(windows, randWindow(rnd, 0.5))
	}
	windows = append(windows,
		unitSquare, // every tile interior
		geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},         // sticks out everywhere
		geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},   // point window
		geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.1, MaxY: 0.1},   // invalid
		geom.Rect{MinX: 0.12, MinY: 0.3, MaxX: 0.97, MaxY: 0.9}, // wide
	)
	for name, ix := range cfgs {
		for wi, w := range windows {
			want := 0
			if w.Valid() {
				ix.Window(w, func(spatial.Entry) { want++ })
			}
			if got := ix.WindowCountFast(w); got != want {
				t.Errorf("%s window %d: WindowCountFast = %d, want %d", name, wi, got, want)
			}
			if got := ix.WindowCount(w); got != want {
				t.Errorf("%s window %d: WindowCount = %d, want %d", name, wi, got, want)
			}
		}
	}
}

// TestWindowCountFilteredEquivalence checks the shard-fanout counting
// kernel (count entries with MinX >= bound) against a filtered streamed
// reference, sweeping the bound across the space so the class-A/B bulk
// shortcut both engages and disengages.
func TestWindowCountFilteredEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	cfgs := kernelConfigs(t, rnd, 3000)
	bounds := []float64{-1, 0, 0.25, 0.5, 0.499999, 0.75, 1, 2}
	for name, ix := range cfgs {
		for i := 0; i < 30; i++ {
			w := randWindow(rnd, 0.6)
			for _, minX := range bounds {
				want := 0
				ix.Window(w, func(e spatial.Entry) {
					if e.Rect.MinX >= minX {
						want++
					}
				})
				if got := ix.WindowCountFiltered(w, minX); got != want {
					t.Errorf("%s window %d minX=%v: WindowCountFiltered = %d, want %d",
						name, i, minX, got, want)
				}
			}
		}
	}
}

// TestDiskCountEquivalence checks the disk count kernel (covered tiles
// counted wholesale) against the streamed disk reference.
func TestDiskCountEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	cfgs := kernelConfigs(t, rnd, 3000)
	for name, ix := range cfgs {
		for i := 0; i < 40; i++ {
			c := geom.Point{X: rnd.Float64()*1.2 - 0.1, Y: rnd.Float64()*1.2 - 0.1}
			r := rnd.Float64() * 0.6 // large radii cover whole tiles
			want := 0
			ix.Disk(c, r, func(spatial.Entry) { want++ })
			if got := ix.DiskCount(c, r); got != want {
				t.Errorf("%s disk %d (c=%v r=%v): DiskCount = %d, want %d", name, i, c, r, got, want)
			}
		}
	}
}

// TestLargeWindowEquivalence checks the sequential scan on large
// windows: covers of at least 1024 tiles with at least 4096 results, so
// one query walks thousands of tiles. Window must return exactly the
// naive scan's IDs, and WindowIDs, WindowUntil and Search must deliver
// Window's sequence (or the documented prefix of it) in Window's order.
func TestLargeWindowEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	rects := randRects(rnd, 6000, 0.03)
	windows := []geom.Rect{
		unitSquare,
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		{MinX: 0.04, MinY: 0.07, MaxX: 0.97, MaxY: 0.95},
		{MinX: 0.1, MinY: -0.5, MaxX: 1.5, MaxY: 0.93},
	}
	for name, ix := range kernelConfigsOver(t, rects) {
		large := 0
		for wi, w := range windows {
			var naive []spatial.ID
			for i, r := range rects {
				if r.Intersects(w) {
					naive = append(naive, spatial.ID(i))
				}
			}
			ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
			if (ix1-ix0+1)*(iy1-iy0+1) < 1024 || len(naive) < 4096 {
				continue
			}
			large++
			ctx := fmt.Sprintf("%s window %d", name, wi)

			var want []spatial.ID
			ix.Window(w, func(e spatial.Entry) { want = append(want, e.ID) })
			sameIDs(t, append([]spatial.ID(nil), want...), naive, ctx+": Window vs naive")
			total := len(want)
			sameOrder(t, ix.WindowIDs(w, nil), want, ctx+": WindowIDs")

			for _, k := range []int{1, total / 2, total, total + 1} {
				var got []spatial.ID
				complete := ix.WindowUntil(w, func(e spatial.Entry) bool {
					got = append(got, e.ID)
					return len(got) < k
				})
				sameOrder(t, got, want[:min(k, total)], fmt.Sprintf("%s: WindowUntil k=%d", ctx, k))
				if complete != (k > total) {
					t.Errorf("%s: WindowUntil k=%d complete = %v", ctx, k, complete)
				}
			}

			for _, limit := range []int{0, 1, total - 1, total, total + 1} {
				var got []spatial.ID
				complete, err := ix.Search(Query{Window: &w, Limit: limit}, func(e spatial.Entry) bool {
					got = append(got, e.ID)
					return true
				})
				if err != nil {
					t.Fatalf("%s: Search limit=%d: %v", ctx, limit, err)
				}
				n := total
				if limit > 0 && limit < total {
					n = limit
				}
				sameOrder(t, got, want[:n], fmt.Sprintf("%s: Search limit=%d", ctx, limit))
				// A Limit that is reached reports incomplete, even when it
				// equals the result count.
				if wantComplete := limit == 0 || limit > total; complete != wantComplete {
					t.Errorf("%s: Search limit=%d complete = %v, want %v", ctx, limit, complete, wantComplete)
				}
			}
		}
		if nx, ny := ix.g.NX, ix.g.NY; nx*ny >= 1024 && large == 0 {
			t.Errorf("%s: no test window reached 1024 tiles and 4096 results", name)
		}
	}
}

// sameOrder fails the test unless got equals want element by element.
func sameOrder(t *testing.T, got, want []spatial.ID, context string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d results differ from the expected %d (or their order does)", context, len(got), len(want))
	}
}

// TestWindowStartsNoGoroutine pins the window scan to the caller's
// goroutine: whatever the window size, Window, WindowIDs and Search
// leave the goroutine count where it was, so the only parallelism in a
// serving process is what the caller asked for (batch threads, parallel
// join, shard fan-out).
func TestWindowStartsNoGoroutine(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	ix, _ := buildRandom(rnd, 5000, 0.02, Options{NX: 64, NY: 64, Space: unitSquare})
	w := unitSquare
	peak := 0
	observe := func(spatial.Entry) {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	baseline := runtime.NumGoroutine()
	ix.Window(w, observe)
	for _, id := range ix.WindowIDs(w, nil) {
		observe(spatial.Entry{ID: id})
	}
	if _, err := ix.Search(Query{Window: &w}, func(e spatial.Entry) bool {
		observe(e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Only growth is a failure: a goroutine an earlier test left winding
	// down may exit meanwhile.
	if peak > baseline {
		t.Errorf("goroutines during window scans peaked at %d, baseline %d", peak, baseline)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines after window scans = %d, baseline %d", n, baseline)
	}
}

// TestQueryPathStatsCounters checks that the always-on path counters
// move: pushdown counts bump FastCounts, interior tiles bump
// FastTiles/BulkEntries, and a view feeds the same counters.
func TestQueryPathStatsCounters(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	ix, _ := buildRandom(rnd, 4000, 0.02, Options{NX: 8, NY: 8, Space: unitSquare})

	before := ix.QueryPathStats()
	n := ix.WindowCountFast(unitSquare)
	if n != 4000 {
		t.Fatalf("whole-space count = %d, want 4000", n)
	}
	after := ix.QueryPathStats()
	if after.FastCounts != before.FastCounts+1 {
		t.Errorf("FastCounts = %d, want %d", after.FastCounts, before.FastCounts+1)
	}
	if after.FastTiles <= before.FastTiles {
		t.Errorf("FastTiles did not advance: %d -> %d", before.FastTiles, after.FastTiles)
	}
	// Border tiles extend to infinity and are never interior, so only
	// the inner tiles' entries count as bulk.
	if after.BulkEntries <= before.BulkEntries {
		t.Errorf("BulkEntries did not advance: %d -> %d", before.BulkEntries, after.BulkEntries)
	}

	// A view shares the same counters.
	_ = ix.View(nil).WindowCountFast(unitSquare)
	if got := ix.QueryPathStats(); got.FastCounts != after.FastCounts+1 {
		t.Errorf("FastCounts through a view = %d, want %d", got.FastCounts, after.FastCounts+1)
	}
}

// TestWindowCollectionAllocs pins the pooled collection paths at zero
// allocations per query once the pools and result buffer are warm.
func TestWindowCollectionAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	ix, _ := buildRandom(rnd, 10000, 0.01, Options{NX: 64, NY: 64, Space: unitSquare})
	w := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	buf := ix.WindowIDs(w, nil)
	if len(buf) == 0 {
		t.Fatal("test window matched nothing")
	}

	if avg := testing.AllocsPerRun(100, func() {
		buf = ix.WindowIDs(w, buf[:0])
	}); avg != 0 {
		t.Errorf("WindowIDs allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = ix.WindowCount(w)
	}); avg != 0 {
		t.Errorf("WindowCount allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		_, _ = ix.SearchCount(Query{Window: &w})
	}); avg != 0 {
		t.Errorf("SearchCount allocates %.1f times per run, want 0", avg)
	}
}
