// Quickstart: build a two-layer index over rectangle objects and run
// window and disk range queries.
package main

import (
	"fmt"
	"math/rand"

	twolayer "github.com/twolayer/twolayer"
)

func main() {
	// One million small rectangles scattered over the unit square.
	rnd := rand.New(rand.NewSource(1))
	rects := make([]twolayer.Rect, 1_000_000)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.001, MaxY: y + 0.001}
	}

	// GridSize is tiles per dimension; Decompose enables the 2-layer+
	// sorted tables, the fastest configuration for static data.
	idx := twolayer.BuildRects(rects, twolayer.Options{GridSize: 512, Decompose: true})
	fmt.Printf("indexed %d objects, replication factor %.3f, ~%d MB\n",
		idx.Len(), idx.ReplicationFactor(), idx.MemoryFootprint()/(1<<20))

	// Every range query is a Query descriptor: one shape, optionally
	// exact refinement and a result limit. A window query reports every
	// object whose MBR intersects the window exactly once — no duplicate
	// elimination happens anywhere. The error is non-nil only for an
	// invalid descriptor.
	window := twolayer.Rect{MinX: 0.40, MinY: 0.40, MaxX: 0.43, MaxY: 0.43}
	inWindow := twolayer.Query{Window: &window}
	n, _ := idx.SearchCount(inWindow)
	fmt.Printf("window %v -> %d objects\n", window, n)

	// Stream results instead of counting; returning false stops the scan
	// (tile-granular).
	shown := 0
	idx.Search(inWindow, func(id twolayer.ID, mbr twolayer.Rect) bool {
		fmt.Printf("  id=%d mbr=%v\n", id, mbr)
		shown++
		return shown < 3
	})

	// A disk query: all objects within distance 0.02 of a point.
	center := twolayer.Point{X: 0.5, Y: 0.5}
	n, _ = idx.SearchCount(twolayer.Query{Disk: &twolayer.Disk{Center: center, Radius: 0.02}})
	fmt.Printf("disk around %v -> %d objects\n", center, n)

	// The index is dynamic: insert and delete by (id, MBR).
	extra := twolayer.Rect{MinX: 0.415, MinY: 0.415, MaxX: 0.418, MaxY: 0.418}
	idx.Insert(twolayer.ID(len(rects)), extra)
	n, _ = idx.SearchCount(inWindow)
	fmt.Printf("after insert: %d objects in window\n", n)
	idx.Delete(twolayer.ID(len(rects)), extra)
	n, _ = idx.SearchCount(inWindow)
	fmt.Printf("after delete: %d objects in window\n", n)

	// For concurrent readers and writers, wrap the index in a Live
	// handle: readers pin immutable snapshots (one atomic load, no
	// locks) while a single apply loop publishes copy-on-write updates.
	// LiveFrom takes ownership — do not use idx directly afterward.
	live := twolayer.LiveFrom(idx, twolayer.LiveOptions{})
	defer live.Close()
	epoch, _ := live.Insert(twolayer.ID(len(rects))+1, extra)
	snap := live.Snapshot() // immutable; safe from any goroutine
	n, _ = snap.SearchCount(inWindow)
	fmt.Printf("live epoch %d: %d objects in window\n", epoch, n)
}
