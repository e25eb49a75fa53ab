package twolayer_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// The basic lifecycle: build over MBRs, run a window query.
func ExampleBuildRects() {
	objects := []twolayer.Rect{
		{MinX: 0.10, MinY: 0.10, MaxX: 0.20, MaxY: 0.20},
		{MinX: 0.50, MinY: 0.40, MaxX: 0.80, MaxY: 0.60},
		{MinX: 0.15, MinY: 0.45, MaxX: 0.30, MaxY: 0.55},
	}
	idx := twolayer.BuildRects(objects, twolayer.Options{GridSize: 8})

	window := twolayer.Rect{MinX: 0, MinY: 0, MaxX: 0.55, MaxY: 0.55}
	ids, err := idx.SearchIDs(twolayer.Query{Window: &window}, nil)
	if err != nil {
		panic(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println(ids)
	// Output: [0 1 2]
}

// Every range query is one Query descriptor — a window, a disk or a
// region, optionally refined against the exact geometries and capped by
// a Limit — and Search streams its matches, each exactly once. Exact
// refinement runs only when the secondary filter cannot prove the
// result.
func ExampleIndex_Search() {
	triangle := twolayer.NewPolygon(
		twolayer.Point{X: 0.0, Y: 0.0},
		twolayer.Point{X: 0.4, Y: 0.0},
		twolayer.Point{X: 0.0, Y: 0.4},
	)
	idx := twolayer.BuildGeoms([]twolayer.Geometry{triangle}, twolayer.Options{GridSize: 8})

	// This window intersects the triangle's MBR but not the triangle.
	corner := twolayer.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.39, MaxY: 0.39}
	for _, q := range []twolayer.Query{
		{Window: &corner}, // filtering: MBRs only
		{Window: &corner, Exact: true, Mode: twolayer.RefineAvoidPlus},
	} {
		n := 0
		complete, err := idx.Search(q, func(id twolayer.ID, mbr twolayer.Rect) bool {
			n++
			return true // false stops the scan
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("exact=%v: %d results, complete=%v\n", q.Exact, n, complete)
	}
	// Output:
	// exact=false: 1 results, complete=true
	// exact=true: 0 results, complete=true
}

// SearchCount counts what Search would stream; a plain count runs the
// count pushdown and never visits most entries. Here a disk (distance)
// query counts every object within the radius.
func ExampleIndex_SearchCount() {
	objects := []twolayer.Rect{
		{MinX: 0.48, MinY: 0.48, MaxX: 0.52, MaxY: 0.52}, // at the center
		{MinX: 0.90, MinY: 0.90, MaxX: 0.95, MaxY: 0.95}, // far away
	}
	idx := twolayer.BuildRects(objects, twolayer.Options{GridSize: 8})
	n, err := idx.SearchCount(twolayer.Query{
		Disk: &twolayer.Disk{Center: twolayer.Point{X: 0.5, Y: 0.5}, Radius: 0.1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 1
}

// k-nearest-neighbor search returns ascending distances.
func ExampleIndex_KNN() {
	objects := []twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.11, MaxY: 0.11},
		{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51},
		{MinX: 0.9, MinY: 0.9, MaxX: 0.91, MaxY: 0.91},
	}
	idx := twolayer.BuildRects(objects, twolayer.Options{GridSize: 8})
	for _, n := range idx.KNN(twolayer.Point{X: 0.52, Y: 0.52}, 2) {
		fmt.Printf("id=%d dist=%.2f\n", n.ID, n.Dist)
	}
	// Output:
	// id=1 dist=0.01
	// id=2 dist=0.54
}

// Spatial joins stream each intersecting pair exactly once.
func ExampleIndex_Join() {
	space := twolayer.Rect{MaxX: 1, MaxY: 1}
	opts := twolayer.Options{GridSize: 8, Space: space}
	roads := twolayer.BuildRects([]twolayer.Rect{
		{MinX: 0.1, MinY: 0.2, MaxX: 0.6, MaxY: 0.22},
	}, opts)
	parcels := twolayer.BuildRects([]twolayer.Rect{
		{MinX: 0.2, MinY: 0.1, MaxX: 0.3, MaxY: 0.3}, // crossed by the road
		{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8}, // not crossed
	}, opts)
	err := roads.Join(parcels, func(road, parcel twolayer.ID) {
		fmt.Printf("road %d crosses parcel %d\n", road, parcel)
	})
	if err != nil { // ErrGridMismatch or ErrSelfJoin
		panic(err)
	}
	// Output: road 0 crosses parcel 0
}

// Batches evaluate many queries with cache-conscious tile-at-a-time
// processing.
func ExampleIndex_BatchWindowCounts() {
	objects := []twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.6, MinY: 0.6, MaxX: 0.7, MaxY: 0.7},
	}
	idx := twolayer.BuildRects(objects, twolayer.Options{GridSize: 8})
	queries := []twolayer.Rect{
		{MinX: 0.0, MinY: 0.0, MaxX: 0.3, MaxY: 0.3},
		{MinX: 0.0, MinY: 0.0, MaxX: 1.0, MaxY: 1.0},
	}
	fmt.Println(idx.BatchWindowCounts(queries, twolayer.TilesBased, 1))
	// Output: [1 2]
}

// Indices persist without their geometries and load back ready to query.
func ExampleIndex_Save() {
	idx := twolayer.BuildRects([]twolayer.Rect{
		{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6},
	}, twolayer.Options{GridSize: 8})

	var buf bytes.Buffer
	if _, err := idx.Save(&buf); err != nil {
		panic(err)
	}
	loaded, err := twolayer.Load(&buf)
	if err != nil {
		panic(err)
	}
	n, err := loaded.SearchCount(twolayer.Query{Window: &twolayer.Rect{MaxX: 1, MaxY: 1}})
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 1
}

// Per-query tracing: a traced view records counters plus stage timings
// into a private Trace — the building block for slow-query logs.
func ExampleIndex_Traced() {
	idx := twolayer.BuildRects([]twolayer.Rect{
		{MinX: 0.10, MinY: 0.10, MaxX: 0.20, MaxY: 0.20},
		{MinX: 0.50, MinY: 0.40, MaxX: 0.80, MaxY: 0.60},
	}, twolayer.Options{GridSize: 8})

	view, tr := idx.Traced()
	tr.Kind = "window"
	start := time.Now()
	n, err := view.SearchCount(twolayer.Query{Window: &twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}})
	tr.Finish(start)
	if err != nil {
		panic(err)
	}

	fmt.Println(tr.Kind, "results:", n)
	fmt.Println("counted work:", tr.TilesVisited > 0, tr.EntriesScanned > 0)
	fmt.Println("timed:", tr.Elapsed() > 0)
	// Output:
	// window results: 2
	// counted work: true true
	// timed: true
}

// Metrics hookup: the engine totals every query, on any view or
// goroutine, and a metrics scraper reads the total; an instrumented view
// keeps its own queries' counters besides.
func ExampleIndex_QueryStats() {
	idx := twolayer.BuildRects([]twolayer.Rect{
		{MinX: 0.10, MinY: 0.10, MaxX: 0.20, MaxY: 0.20},
		{MinX: 0.50, MinY: 0.40, MaxX: 0.80, MaxY: 0.60},
	}, twolayer.Options{GridSize: 8})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx.SearchCount(twolayer.Query{Window: &twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}})
		}()
	}
	wg.Wait()
	view, stats := idx.Instrumented()
	view.SearchCount(twolayer.Query{Window: &twolayer.Rect{MinX: 0, MinY: 0, MaxX: 0.3, MaxY: 0.3}})

	total := idx.QueryStats() // what a /metrics scrape reads
	fmt.Println("queries:", total.Queries, "results:", total.Results)
	fmt.Println("view:", stats.Queries, "results:", stats.Results)
	// Output:
	// queries: 5 results: 9
	// view: 1 results: 1
}

// The quick start: build a plain two-layer index over rectangles, count
// and stream window matches, run a disk query, then hand the index to
// the updatable handle for concurrent readers and writers.
func Example_quickstart() {
	// Twenty thousand small rectangles scattered over the unit square.
	rnd := rand.New(rand.NewSource(1))
	rects := make([]twolayer.Rect, 20_000)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.001, MaxY: y + 0.001}
	}

	// GridSize is tiles per dimension.
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 64})
	fmt.Printf("indexed %d objects, replication factor %.3f\n", idx.Len(), idx.ReplicationFactor())

	// A window query reports every object whose MBR intersects the
	// window exactly once — no duplicate elimination happens anywhere.
	// The error is non-nil only for an invalid descriptor.
	window := twolayer.Rect{MinX: 0.40, MinY: 0.40, MaxX: 0.45, MaxY: 0.45}
	inWindow := twolayer.Query{Window: &window}
	n, _ := idx.SearchCount(inWindow)
	fmt.Printf("window %v -> %d objects\n", window, n)

	// Stream results instead of counting; returning false stops the scan.
	shown := 0
	complete, _ := idx.Search(inWindow, func(id twolayer.ID, mbr twolayer.Rect) bool {
		shown++
		return shown < 3
	})
	fmt.Printf("streamed %d, complete=%v\n", shown, complete)

	// A disk query: all objects within distance 0.02 of a point.
	center := twolayer.Point{X: 0.5, Y: 0.5}
	n, _ = idx.SearchCount(twolayer.Query{Disk: &twolayer.Disk{Center: center, Radius: 0.02}})
	fmt.Printf("disk around %v -> %d objects\n", center, n)

	// An Index is immutable. To update it, hand it to the updatable
	// handle as its one shard: readers pin immutable snapshots (one
	// atomic load, no locks) while a single apply loop publishes
	// copy-on-write batches. ShardedLiveFrom takes ownership — do not
	// use idx directly afterward.
	live := twolayer.ShardedLiveFrom(twolayer.OneShard(idx), twolayer.LiveOptions{})
	defer live.Close()
	id, extra := twolayer.ID(len(rects)), twolayer.Rect{MinX: 0.415, MinY: 0.415, MaxX: 0.418, MaxY: 0.418}
	res, _ := live.Apply([]twolayer.Mutation{{ID: id, MBR: extra}})
	n, _ = live.Snapshot().SearchCount(inWindow) // a snapshot is safe from any goroutine
	fmt.Printf("epoch %d, after insert: %d objects in window\n", res.Epoch, n)

	// A move is a delete of the stored MBR and an insert of the new one,
	// published together.
	res, _ = live.Apply([]twolayer.Mutation{
		{Delete: true, ID: id, MBR: extra},
		{ID: id, MBR: twolayer.Rect{MinX: 0.715, MinY: 0.715, MaxX: 0.718, MaxY: 0.718}},
	})
	n, _ = live.Snapshot().SearchCount(inWindow)
	fmt.Printf("epoch %d, after move (found %v): %d objects in window\n", res.Epoch, res.Found[0], n)
	// Output:
	// indexed 20000 objects, replication factor 1.131
	// window [0.4,0.45]x[0.4,0.45] -> 58 objects
	// streamed 3, complete=false
	// disk around {0.5 0.5} -> 28 objects
	// epoch 1, after insert: 59 objects in window
	// epoch 2, after move (found true): 58 objects in window
}

// The one updatable handle: an empty ShardedLive of one shard over the
// unit square. A mutation call returns once its batch is published, so
// the writer sees its own write in every later snapshot, and a pinned
// snapshot never changes.
func ExampleShardedLiveFrom() {
	live := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil, twolayer.Options{
		GridSize: 64,
		Space:    twolayer.Rect{MaxX: 1, MaxY: 1},
	}, twolayer.ShardedOptions{Shards: 1}), twolayer.LiveOptions{})
	defer live.Close()

	home := twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	window := twolayer.Query{Window: &twolayer.Rect{MaxX: 0.5, MaxY: 0.5}}
	epoch, _ := live.Insert(1, home)
	snap := live.Snapshot() // immutable; query from any goroutine
	n, _ := snap.SearchCount(window)
	fmt.Println("epoch", epoch, "in window:", n)

	// Apply publishes a batch at once; a delete names the stored MBR.
	res, _ := live.Apply([]twolayer.Mutation{
		{Delete: true, ID: 1, MBR: home},
		{ID: 1, MBR: twolayer.Rect{MinX: 0.7, MinY: 0.7, MaxX: 0.8, MaxY: 0.8}},
	})
	n, _ = live.Snapshot().SearchCount(window)
	pinned, _ := snap.SearchCount(window)
	fmt.Println("epoch", res.Epoch, "found", res.Found, "in window:", n, "pinned:", pinned)
	// Output:
	// epoch 1 in window: 1
	// epoch 2 found [true true] in window: 0 pinned: 1
}

// exampleRoads is a synthetic road network: 3-6 vertex polylines
// meandering out of 40 towns they cluster around.
func exampleRoads(rnd *rand.Rand, nRoads int) []twolayer.Geometry {
	type town struct{ x, y, spread float64 }
	towns := make([]town, 40)
	for i := range towns {
		towns[i] = town{x: rnd.Float64(), y: rnd.Float64(), spread: 0.01 + rnd.Float64()*0.05}
	}
	clamp01 := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	roads := make([]twolayer.Geometry, nRoads)
	for i := range roads {
		t := towns[rnd.Intn(len(towns))]
		pts := make([]twolayer.Point, 3+rnd.Intn(4))
		x := t.x + rnd.NormFloat64()*t.spread
		y := t.y + rnd.NormFloat64()*t.spread
		heading := rnd.Float64() * 2 * math.Pi
		for j := range pts {
			pts[j] = twolayer.Point{X: clamp01(x), Y: clamp01(y)}
			heading += rnd.NormFloat64() * 0.5 // gentle curves
			step := 0.001 + rnd.Float64()*0.004
			x += math.Cos(heading) * step
			y += math.Sin(heading) * step
		}
		roads[i] = twolayer.NewLineString(pts...)
	}
	return roads
}

// GIS: exact range queries over a road network of linestrings, the
// workload that motivates the paper's refinement step (Section V). The
// three refinement modes return the same roads; with the secondary
// filter (Lemma 5) most results are accepted by an MBR coverage test
// instead of an exact geometry test.
func Example_gis() {
	rnd := rand.New(rand.NewSource(7))
	roads := exampleRoads(rnd, 10_000)
	idx := twolayer.BuildGeoms(roads, twolayer.Options{GridSize: 64})

	// "Which roads cross this map viewport?"
	viewports := make([]twolayer.Rect, 200)
	for i := range viewports {
		x, y := rnd.Float64()*0.95, rnd.Float64()*0.95
		viewports[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.03}
	}
	for _, mode := range []twolayer.RefineMode{
		twolayer.RefineSimple, twolayer.RefineAvoid, twolayer.RefineAvoidPlus,
	} {
		view, stats := idx.Instrumented()
		results := 0
		for _, w := range viewports {
			// An exact query fails only without geometries or on an
			// invalid descriptor, neither possible here.
			n, _ := view.SearchCount(twolayer.Query{Window: &w, Exact: true, Mode: mode})
			results += n
		}
		fmt.Printf("%-9s %d results, %d exact tests, %d filter hits\n",
			mode, results, stats.RefinementTests, stats.SecondaryFilterHits)
	}

	// Proximity search: every road within 0.01 of an incident on road 0.
	incident := roads[0].MBR().Center()
	n, _ := idx.SearchCount(twolayer.Query{
		Disk:  &twolayer.Disk{Center: incident, Radius: 0.01},
		Exact: true,
		Mode:  twolayer.RefineAvoid,
	})
	fmt.Printf("roads within 0.01 of road 0's center: %d\n", n)
	// Output:
	// Simple    2063 results, 2110 exact tests, 0 filter hits
	// RefAvoid  2063 results, 226 exact tests, 1884 filter hits
	// RefAvoid+ 2063 results, 226 exact tests, 1884 filter hits
	// roads within 0.01 of road 0's center: 21
}

// exampleInfluenceRegion approximates a mobile user's activity area: a
// convex polygon around a home location, larger for more mobile users.
func exampleInfluenceRegion(rnd *rand.Rand) twolayer.Geometry {
	cx, cy := rnd.Float64(), rnd.Float64()
	radius := 0.0005 + rnd.ExpFloat64()*0.002 // a few very mobile users
	n := 5 + rnd.Intn(4)
	ring := make([]twolayer.Point, n)
	for i := range ring {
		a := (float64(i) + 0.3*rnd.Float64()) / float64(n) * 2 * math.Pi
		r := radius * (0.7 + 0.3*rnd.Float64())
		ring[i] = twolayer.Point{
			X: math.Max(0, math.Min(1, cx+r*math.Cos(a))),
			Y: math.Max(0, math.Min(1, cy+r*math.Sin(a))),
		}
	}
	return twolayer.NewPolygon(ring...)
}

// Location-based analytics, the workload of the paper's introduction:
// index users' influence regions and answer a batch of "how many users
// would see an ad placed here?" queries. Both batch strategies of
// Section VI, serial or on two workers, give the same counts; the
// tiles-based one reads each tile once for all the queries it serves.
func Example_poi() {
	rnd := rand.New(rand.NewSource(99))
	regions := make([]twolayer.Geometry, 20_000)
	for i := range regions {
		regions[i] = exampleInfluenceRegion(rnd)
	}
	idx := twolayer.BuildGeoms(regions, twolayer.Options{GridSize: 64})
	fmt.Printf("indexed %d regions, replication %.3f\n", idx.Len(), idx.ReplicationFactor())

	queries := make([]twolayer.Rect, 1000)
	for i := range queries {
		x, y := rnd.Float64(), rnd.Float64()
		queries[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}
	}
	for _, strategy := range []twolayer.BatchStrategy{twolayer.QueriesBased, twolayer.TilesBased} {
		for _, threads := range []int{1, 2} {
			view, stats := idx.Instrumented()
			total := 0
			for _, c := range view.BatchWindowCounts(queries, strategy, threads) {
				total += c
			}
			fmt.Printf("%-13s threads=%d: %d candidate pairs, %d tiles visited\n",
				strategy, threads, total, stats.TilesVisited)
		}
	}

	// One ad placement, checked against the exact regions.
	spot := twolayer.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.52, MaxY: 0.52}
	reach, _ := idx.SearchCount(twolayer.Query{Window: &spot, Exact: true, Mode: twolayer.RefineAvoidPlus})
	fmt.Printf("exact audience at %v: %d users\n", spot, reach)
	// Output:
	// indexed 20000 regions, replication 1.624
	// queries-based threads=1: 11486 candidate pairs, 5063 tiles visited
	// queries-based threads=2: 11486 candidate pairs, 5063 tiles visited
	// tiles-based   threads=1: 11486 candidate pairs, 5147 tiles visited
	// tiles-based   threads=2: 11486 candidate pairs, 5147 tiles visited
	// exact audience at [0.5,0.52]x[0.5,0.52]: 10 users
}

// Spatial join: which land parcels does each road segment cross? Both
// datasets are indexed on the same grid, and the join's class
// combinations produce every intersecting pair exactly once with no
// duplicate elimination. Probing the parcel index once per road (an
// index nested loop) finds the same pairs with one query per road.
func Example_join() {
	rnd := rand.New(rand.NewSource(5))
	parcels := make([]twolayer.Rect, 20_000) // a dense mosaic of small boxes
	for i := range parcels {
		x, y := rnd.Float64(), rnd.Float64()
		parcels[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.005, MaxY: y + 0.005}
	}
	roads := make([]twolayer.Rect, 4_000) // longer, thinner boxes
	for i := range roads {
		x, y := rnd.Float64(), rnd.Float64()
		if rnd.Intn(2) == 0 {
			roads[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.002}
		} else {
			roads[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.002, MaxY: y + 0.03}
		}
	}
	opts := twolayer.Options{GridSize: 64, Space: twolayer.Rect{MaxX: 1, MaxY: 1}}
	parcelIdx := twolayer.BuildRects(parcels, opts)
	roadIdx := twolayer.BuildRects(roads, opts)

	// Join refuses (ErrGridMismatch) indices built over different grids.
	join, joinStats := roadIdx.Instrumented()
	crossings := make(map[twolayer.ID]int)
	if err := join.Join(parcelIdx, func(_, parcel twolayer.ID) { crossings[parcel]++ }); err != nil {
		panic(err)
	}
	pairs := 0
	for _, c := range crossings {
		pairs += c
	}
	fmt.Printf("grid join:   %d pairs, %d queries, %d tiles visited\n", pairs, joinStats.Queries, joinStats.TilesVisited)

	probe, probeStats := parcelIdx.Instrumented()
	probePairs := 0
	for _, r := range roads {
		n, _ := probe.SearchCount(twolayer.Query{Window: &r}) // a valid window cannot fail
		probePairs += n
	}
	fmt.Printf("nested loop: %d pairs, %d queries, %d tiles visited\n", probePairs, probeStats.Queries, probeStats.TilesVisited)

	// The parcel crossed by the most roads (lowest ID on a tie).
	best := twolayer.ID(0)
	for id, c := range crossings {
		if c > crossings[best] || c == crossings[best] && id < best {
			best = id
		}
	}
	fmt.Printf("busiest parcel: %d, crossed by %d roads\n", best, crossings[best])

	// The three parcels nearest to a depot.
	for _, n := range parcelIdx.KNN(twolayer.Point{X: 0.42, Y: 0.58}, 3) {
		fmt.Printf("near depot: parcel %d at distance %.5f\n", n.ID, n.Dist)
	}
	// Output:
	// grid join:   19611 pairs, 1 queries, 3890 tiles visited
	// nested loop: 19611 pairs, 4000 queries, 13027 tiles visited
	// busiest parcel: 1257, crossed by 7 roads
	// near depot: parcel 7619 at distance 0.00114
	// near depot: parcel 13983 at distance 0.00184
	// near depot: parcel 8427 at distance 0.00628
}

// Moving-object maintenance, the update workload of the paper's Table
// VI: bulk-load 90% of a fleet's service areas, insert the rest through
// the updatable handle, then absorb moves (delete the old MBR, insert
// the new one, published as one batch) interleaved with dispatcher
// window counts on fresh snapshots. An update touches only the tiles
// its MBR overlaps.
func Example_migration() {
	rnd := rand.New(rand.NewSource(42))
	serviceArea := func(cx, cy float64) twolayer.Rect {
		w, h := 0.002+rnd.Float64()*0.004, 0.002+rnd.Float64()*0.004
		return twolayer.Rect{MinX: cx, MinY: cy, MaxX: cx + w, MaxY: cy + h}
	}
	const fleet = 20_000
	areas := make([]twolayer.Rect, fleet)
	for i := range areas {
		areas[i] = serviceArea(rnd.Float64(), rnd.Float64())
	}
	idx := twolayer.BuildRects(areas[:fleet*9/10], twolayer.Options{
		GridSize: 64,
		Space:    twolayer.Rect{MaxX: 1.01, MaxY: 1.01},
	})
	live := twolayer.ShardedLiveFrom(twolayer.OneShard(idx), twolayer.LiveOptions{})
	defer live.Close()
	var rest []twolayer.Mutation
	for i := fleet * 9 / 10; i < fleet; i++ {
		rest = append(rest, twolayer.Mutation{ID: twolayer.ID(i), MBR: areas[i]})
	}
	if _, err := live.Apply(rest); err != nil {
		panic(err)
	}
	fmt.Printf("bulk loaded %d, inserted %d\n", fleet*9/10, live.Len()-fleet*9/10)

	clamp01 := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	moves, dispatched := 0, 0
	for i := 0; i < 2_000; i++ {
		id := rnd.Intn(fleet)
		from := areas[id]
		// The vehicle drifts to a nearby position.
		c := from.Center()
		areas[id] = serviceArea(clamp01(c.X+rnd.NormFloat64()*0.01), clamp01(c.Y+rnd.NormFloat64()*0.01))
		res, err := live.Apply([]twolayer.Mutation{
			{Delete: true, ID: twolayer.ID(id), MBR: from},
			{ID: twolayer.ID(id), MBR: areas[id]},
		})
		if err != nil || !res.Found[0] {
			panic("vehicle missing from index")
		}
		moves++

		if i%20 == 0 {
			// Dispatcher: who can serve this neighborhood right now?
			x, y := rnd.Float64(), rnd.Float64()
			n, _ := live.Snapshot().SearchCount(twolayer.Query{Window: &twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05}})
			dispatched += n
		}
	}
	fmt.Printf("%d moves, %d vehicles found by 100 dispatcher queries\n", moves, dispatched)
	fmt.Printf("fleet still consistent: %d indexed objects\n", live.Len())
	// Output:
	// bulk loaded 18000, inserted 2000
	// 2000 moves, 5528 vehicles found by 100 dispatcher queries
	// fleet still consistent: 20000 indexed objects
}
