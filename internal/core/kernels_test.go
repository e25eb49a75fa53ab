package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
	return kernelConfigsOverDataset(t, spatial.NewDataset(rects))
}

// kernelConfigsOverDataset builds the variants over d; the built ones
// (not the live snapshots) keep d for exact queries.
func kernelConfigsOverDataset(t *testing.T, d *spatial.Dataset) map[string]*Index {
	t.Helper()
	liveSnap := func(n int) *Index {
		l := NewLive(New(Options{NX: n, NY: n, Space: unitSquare}), LiveOptions{})
		t.Cleanup(l.Close)
		for _, e := range d.Entries {
			if _, err := l.Insert(e); err != nil {
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
		"sparse-dir":       withDirectory(true, func() *Index { return Build(d, Options{NX: 32, NY: 32, Space: unitSquare}) }),
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
			if got := ix.WindowCount(w); got != want {
				t.Errorf("%s window %d: WindowCount = %d, want %d", name, wi, got, want)
			}
			if got, _ := ix.SearchCount(Query{Window: &w}); got != want {
				t.Errorf("%s window %d: SearchCount = %d, want %d", name, wi, got, want)
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
// naive scan's IDs, and SearchIDs and Search (stopped by its callback or
// by a Limit) must deliver Window's sequence (or the documented prefix of
// it) in Window's order.
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
			sameOrder(t, windowIDs(ix, w), want, ctx+": SearchIDs")

			for _, k := range []int{1, total / 2, total, total + 1} {
				var got []spatial.ID
				complete, err := ix.Search(Query{Window: &w}, func(e spatial.Entry) bool {
					got = append(got, e.ID)
					return len(got) < k
				})
				if err != nil {
					t.Fatalf("%s: Search: %v", ctx, err)
				}
				sameOrder(t, got, want[:min(k, total)], fmt.Sprintf("%s: Search stopped at k=%d", ctx, k))
				if complete != (k > total) {
					t.Errorf("%s: Search stopped at k=%d complete = %v", ctx, k, complete)
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

// TestStreamedQueryMatrix runs every streamed entry point of every query
// shape on every index variant against the brute-force oracles: Search
// on windows, disks and polygons, plain and (on the variants that keep
// the dataset) exact in every refinement mode, unlimited, stopped by its
// callback after 1 and k results, and with Limit 1 and k; Window and Disk
// in Search's order; KNN and KNNExact in brute-force order. Each object
// is delivered once, a stopped or limited query delivers exactly the
// prefix it asked for, and on a Stats view a Limit of 1 stops the walk of
// every shape at tile granularity.
func TestStreamedQueryMatrix(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	d := spatial.NewGeomDataset(randGeoms(rnd, 1500, 0.06))
	windows := []geom.Rect{
		unitSquare,
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		{MinX: 0.2, MinY: 0.2, MaxX: 0.1, MaxY: 0.1}, // invalid
	}
	for i := 0; i < 6; i++ {
		windows = append(windows, randWindow(rnd, 0.5))
	}
	disks := []geom.Disk{{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.45}, {Center: geom.Point{X: 0.3, Y: 0.7}}}
	for i := 0; i < 5; i++ {
		disks = append(disks, geom.Disk{
			Center: geom.Point{X: rnd.Float64()*1.2 - 0.1, Y: rnd.Float64()*1.2 - 0.1},
			Radius: rnd.Float64() * 0.4,
		})
	}
	polygons := []*geom.Polygon{
		uPolygon(0.1, 0.15, 0.7, 0.6, 0.2),
		geom.NewPolygon(geom.Point{X: 0.2, Y: 0.1}, geom.Point{X: 0.9, Y: 0.4}, geom.Point{X: 0.4, Y: 0.95}),
	}
	modes := []RefineMode{RefineSimple, RefineAvoid, RefineAvoidPlus}

	for name, ix := range kernelConfigsOverDataset(t, d) {
		// check runs one query through Search and, where all is set,
		// through the comparator form all, which must deliver Search's
		// sequence: want, each object once. Search stopped by its callback
		// after k results and Search with Limit k must both deliver the
		// first k of that sequence.
		check := func(ctx string, want []spatial.ID, all func(fn func(spatial.Entry)), q Query) {
			t.Helper()
			search := func(q Query, stopAt int) (got []spatial.ID, complete bool) {
				complete, err := ix.Search(q, func(e spatial.Entry) bool {
					got = append(got, e.ID)
					return len(got) != stopAt
				})
				if err != nil {
					t.Fatalf("%s: Search limit=%d: %v", ctx, q.Limit, err)
				}
				return got, complete
			}
			order, _ := search(q, 0)
			noDuplicates(t, order, ctx)
			sameIDs(t, slices.Clone(order), want, ctx)
			if all != nil {
				var got []spatial.ID
				all(func(e spatial.Entry) { got = append(got, e.ID) })
				sameOrder(t, got, order, ctx+": Window/Disk vs Search")
			}
			total := len(order)
			for _, k := range []int{0, 1, 7} {
				n := total
				if k > 0 && k < total {
					n = k
				}
				got, complete := search(q, k)
				sameOrder(t, got, order[:n], fmt.Sprintf("%s: Search stopped at k=%d", ctx, k))
				if complete != (k == 0 || k > total) {
					t.Errorf("%s: Search stopped at k=%d complete = %v with %d results", ctx, k, complete, total)
				}
				limited := q
				limited.Limit = k
				got, complete = search(limited, 0)
				sameOrder(t, got, order[:n], fmt.Sprintf("%s: Search limit=%d", ctx, k))
				if complete != (k == 0 || k > total) {
					t.Errorf("%s: Search limit=%d complete = %v with %d results", ctx, k, complete, total)
				}
			}
			// Tile-granular stop, visible on a Stats view: one result is
			// enough to leave most of a many-tile cover unread.
			if strings.HasPrefix(name, "stats-view") && total > 50 {
				var full, one Stats
				q.Limit = 0
				_, _ = ix.View(&full).Search(q, func(spatial.Entry) bool { return true })
				q.Limit = 1
				_, _ = ix.View(&one).Search(q, func(spatial.Entry) bool { return true })
				if one.TilesVisited >= full.TilesVisited {
					t.Errorf("%s: Limit 1 visited %d tiles, the unlimited query %d", ctx, one.TilesVisited, full.TilesVisited)
				}
			}
		}

		for wi, w := range windows {
			ctx := fmt.Sprintf("%s window %d", name, wi)
			check(ctx, spatial.BruteWindow(d.Entries, w),
				func(fn func(spatial.Entry)) { ix.Window(w, fn) }, Query{Window: &w})
			if ix.Dataset() == nil {
				continue
			}
			for _, mode := range modes {
				check(fmt.Sprintf("%s exact %v", ctx, mode), spatial.BruteWindowExact(d, w),
					nil, Query{Window: &w, Exact: true, Mode: mode})
			}
		}
		for di, dk := range disks {
			ctx := fmt.Sprintf("%s disk %d", name, di)
			check(ctx, spatial.BruteDisk(d.Entries, dk.Center, dk.Radius),
				func(fn func(spatial.Entry)) { ix.Disk(dk.Center, dk.Radius, fn) }, Query{Disk: &dk})
			if ix.Dataset() == nil {
				continue
			}
			for _, mode := range modes[:2] {
				check(fmt.Sprintf("%s exact %v", ctx, mode), spatial.BruteDiskExact(d, dk.Center, dk.Radius),
					nil, Query{Disk: &dk, Exact: true, Mode: mode})
			}
		}
		for pi, poly := range polygons {
			check(fmt.Sprintf("%s polygon %d", name, pi), bruteRegion(d.Entries, poly),
				nil, Query{Region: poly})
		}

		for _, k := range []int{1, 10, d.Len() + 1} {
			for _, q := range []geom.Point{{X: 0.31, Y: 0.64}, {X: 1.2, Y: -0.1}} {
				sameDists(t, fmt.Sprintf("%s KNN k=%d", name, k), ix.KNN(q, k), bruteKNN(d.Entries, q, k))
				if ix.Dataset() != nil {
					sameDists(t, fmt.Sprintf("%s KNNExact k=%d", name, k), ix.KNNExact(q, k), bruteKNNExact(d, q, k))
				}
			}
		}
	}
}

// bruteKNNExact returns the k objects nearest by exact geometry distance,
// by exhaustive scan.
func bruteKNNExact(d *spatial.Dataset, q geom.Point, k int) []Neighbor {
	all := make([]Neighbor, d.Len())
	for i, e := range d.Entries {
		all[i] = Neighbor{ID: e.ID, Dist: math.Sqrt(exactDistSq(d.Geom(e.ID), q))}
	}
	slices.SortFunc(all, func(a, b Neighbor) int { return cmp.Compare(a.Dist, b.Dist) })
	return all[:min(k, len(all))]
}

// sameDists fails the test unless got is want's distance sequence over
// distinct objects (IDs may differ on ties).
func sameDists(t *testing.T, ctx string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", ctx, len(got), len(want))
	}
	seen := make(map[spatial.ID]bool, len(got))
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("%s: neighbor %d at distance %v, want %v", ctx, i, got[i].Dist, want[i].Dist)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate neighbor %d", ctx, got[i].ID)
		}
		seen[got[i].ID] = true
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
// goroutine: whatever the window size, Window, SearchIDs and Search
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
	for _, id := range windowIDs(ix, w) {
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

// TestQueryStatsCounters checks that the always-on engine totals move:
// a query bumps Queries, pushdown counts bump FastCounts, interior tiles
// bump FastTiles/BulkEntries, and a view feeds the same totals.
func TestQueryStatsCounters(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	ix, _ := buildRandom(rnd, 4000, 0.02, Options{NX: 8, NY: 8, Space: unitSquare})

	before := ix.QueryStats()
	n := ix.WindowCount(unitSquare)
	if n != 4000 {
		t.Fatalf("whole-space count = %d, want 4000", n)
	}
	after := ix.QueryStats()
	if after.Queries != before.Queries+1 || after.Results != before.Results+4000 {
		t.Errorf("Queries, Results = %d, %d, want %d, %d",
			after.Queries, after.Results, before.Queries+1, before.Results+4000)
	}
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
	_ = ix.View(nil).WindowCount(unitSquare)
	if got := ix.QueryStats(); got.FastCounts != after.FastCounts+1 {
		t.Errorf("FastCounts through a view = %d, want %d", got.FastCounts, after.FastCounts+1)
	}
}

// TestWindowCollectionAllocs pins what the range paths may allocate per
// query once the result buffer is warm, on the index and on a Stats view
// alike: nothing on the collection and count paths, nothing for a
// capturing callback handed to Window or Search, plain, limited or exact
// (the callback must not escape through the cover walk or its refinement
// hook; exact queries read a dataset with stored geometries), and for a
// disk or a region only its cover, one slice. Every window and disk is
// built on the stack inside the measured call, so a Query that leaked
// its shape pointer would show, and so would a per-query Stats tally
// that escaped.
func TestWindowCollectionAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	d := spatial.NewGeomDataset(randGeoms(rnd, 10000, 0.01))
	base := Build(d, Options{NX: 64, NY: 64, Space: unitSquare})
	win := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	c, r := geom.Point{X: 0.4, Y: 0.4}, 0.2
	hex := geom.NewPolygon(geom.Point{X: 0.6, Y: 0.4}, geom.Point{X: 0.5, Y: 0.57}, geom.Point{X: 0.3, Y: 0.57},
		geom.Point{X: 0.2, Y: 0.4}, geom.Point{X: 0.3, Y: 0.23}, geom.Point{X: 0.5, Y: 0.23})
	buf := windowIDs(base, win)
	if len(buf) == 0 {
		t.Fatal("test window matched nothing")
	}
	var stats Stats
	for _, ix := range []*Index{base, base.View(&stats)} {
		// Every callback below is a fresh capturing literal, as in real
		// use: it is what would be heap-allocated per call if a walk let
		// it escape.
		n := 0
		for _, tc := range []struct {
			name string
			max  float64
			run  func()
		}{
			{"SearchIDs", 0, func() { w := win; buf, _ = ix.SearchIDs(Query{Window: &w}, buf[:0]) }},
			{"SearchIDs disk", 1, func() { dk := geom.Disk{Center: c, Radius: r}; buf, _ = ix.SearchIDs(Query{Disk: &dk}, buf[:0]) }},
			{"WindowCount", 0, func() { _ = ix.WindowCount(win) }},
			{"SearchCount", 0, func() { w := win; _, _ = ix.SearchCount(Query{Window: &w}) }},
			{"Window", 0, func() { ix.Window(win, func(spatial.Entry) { n++ }) }},
			{"Search", 0, func() {
				w := win
				_, _ = ix.Search(Query{Window: &w}, func(spatial.Entry) bool { n++; return true })
			}},
			{"Search limit 1", 0, func() {
				w := win
				if complete, _ := ix.Search(Query{Window: &w, Limit: 1}, func(spatial.Entry) bool { return true }); !complete {
					n++
				}
			}},
			{"Search exact", 0, func() {
				w := win
				_, _ = ix.Search(Query{Window: &w, Exact: true, Mode: RefineAvoidPlus}, func(spatial.Entry) bool { n++; return true })
			}},
			{"Disk", 1, func() { ix.Disk(c, r, func(spatial.Entry) { n++ }) }},
			{"Search disk", 1, func() {
				dk := geom.Disk{Center: c, Radius: r}
				_, _ = ix.Search(Query{Disk: &dk}, func(spatial.Entry) bool { n++; return true })
			}},
			{"Search disk exact", 1, func() {
				dk := geom.Disk{Center: c, Radius: r}
				_, _ = ix.Search(Query{Disk: &dk, Exact: true, Mode: RefineAvoid}, func(spatial.Entry) bool { n++; return true })
			}},
			{"Search region", 1, func() {
				dk := geom.Disk{Center: c, Radius: r}
				_, _ = ix.Search(Query{Region: dk}, func(spatial.Entry) bool { n++; return true })
			}},
			{"SearchCount region", 1, func() { dk := geom.Disk{Center: c, Radius: r}; _, _ = ix.SearchCount(Query{Region: dk}) }},
			{"Search polygon", 1, func() {
				_, _ = ix.Search(Query{Region: hex}, func(spatial.Entry) bool { n++; return true })
			}},
			{"SearchCount polygon", 1, func() { _, _ = ix.SearchCount(Query{Region: hex}) }},
		} {
			if avg := testing.AllocsPerRun(100, tc.run); avg > tc.max {
				t.Errorf("%s (stats %v): allocates %.1f times per run, want at most %.0f", tc.name, ix != base, avg, tc.max)
			}
		}
		if n == 0 {
			t.Fatal("callbacks never ran")
		}
	}
	if stats.Results == 0 {
		t.Fatal("the Stats view counted nothing")
	}
}
