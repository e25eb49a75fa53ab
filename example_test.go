package twolayer_test

import (
	"bytes"
	"fmt"
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
