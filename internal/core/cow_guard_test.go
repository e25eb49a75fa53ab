package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file pins the cost model of a copy-on-write publish by counting
// bytes, not by stopwatch: what one publish copies depends on the pages
// its batch touches and not on how many tiles the index holds.

// guardIndex builds a synthetic index of grid x grid tiles with one small
// object in (nearly) every tile, through the parallel build so the tile
// pages come out of one slab like the benchmark index's do.
func guardIndex(grid int) *Index {
	n := grid * grid
	rects := make([]geom.Rect, n)
	cell := 1 / float64(grid)
	for i := range rects {
		x := (float64(i%grid) + 0.25) * cell
		y := (float64(i/grid) + 0.25) * cell
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + cell/4, MaxY: y + cell/4}
	}
	return Build(spatial.NewDataset(rects), Options{
		NX: grid, NY: grid, Space: unitSquare, BuildThreads: 2})
}

// guardMoves returns n/2 moves (delete + insert) of objects of
// guardIndex(grid), each to a random position. The delete names the
// built position, so an object is moved at most once: moved remembers
// the ones already taken.
func guardMoves(rnd *rand.Rand, grid, n int, moved map[spatial.ID]bool) []Mutation {
	cell := 1 / float64(grid)
	muts := make([]Mutation, 0, n)
	for len(muts) < n {
		id := spatial.ID(rnd.Intn(grid * grid))
		if moved[id] {
			continue
		}
		moved[id] = true
		x := (float64(int(id)%grid) + 0.25) * cell
		y := (float64(int(id)/grid) + 0.25) * cell
		old := geom.Rect{MinX: x, MinY: y, MaxX: x + cell/4, MaxY: y + cell/4}
		nx, ny := rnd.Float64()*0.99, rnd.Float64()*0.99
		muts = append(muts,
			Mutation{Delete: true, Entry: spatial.Entry{ID: id, Rect: old}},
			Mutation{Entry: spatial.Entry{ID: id, Rect: geom.Rect{
				MinX: nx, MinY: ny, MaxX: nx + cell/4, MaxY: ny + cell/4}}})
	}
	return muts
}

// publishCost applies one batch through a Live index and returns the
// bytes the publish copied by the index's own counter, and the bytes and
// heap objects the process allocated meanwhile.
func publishCost(t testing.TB, l *Live, muts []Mutation) (cow, alloc, mallocs int64) {
	t.Helper()
	var before, after runtime.MemStats
	cowBefore := l.Stats().COWBytes
	runtime.ReadMemStats(&before)
	res, err := l.Apply(muts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range res.Found {
		if !ok {
			t.Fatalf("mutation %d found nothing: the batch is not the one the guard sized", i)
		}
	}
	return l.Stats().COWBytes - cowBefore, int64(after.TotalAlloc - before.TotalAlloc),
		int64(after.Mallocs - before.Mallocs)
}

// touched counts what next, a descendant of prev, owns that prev does
// not share: the tiles next's epoch owns, and the tile and directory
// pages it references in place of prev's.
func touched(prev, next *Index) (tiles, pages int) {
	for pi, p := range next.pages {
		if pi < len(prev.pages) && p == prev.pages[pi] {
			continue
		}
		pages++
		for i := range p.tiles {
			if p.tiles[i].epoch == next.epoch {
				tiles++
			}
		}
	}
	for k, p := range next.dense {
		if p != prev.dense[k] {
			pages++
		}
	}
	return tiles, pages
}

// TestPublishIsOTouched: one 64-mutation publish on an index of >= 200K
// occupied tiles copies at most 256 KiB, allocates no more than that
// plus the page-reference slice, in at most one heap object per touched
// tile and page plus a few for the batch, and copies the same amount
// (within 10%) on an index with four times the tiles.
func TestPublishIsOTouched(t *testing.T) {
	const (
		grid    = 460 // 211,600 occupied tiles
		batch   = 64
		maxCopy = 256 << 10
		// perBatch is the heap objects a publish allocates whatever it
		// touches: the clone, its page references, the found slices and
		// the submission's channel.
		perBatch = 16
	)
	var cows [2]int64
	for i, g := range []int{grid, 2 * grid} {
		ix := guardIndex(g)
		if ix.numTiles < 200_000*(1+3*i) {
			t.Fatalf("grid %d: only %d occupied tiles", g, ix.numTiles)
		}
		refBytes := int64(8 * len(ix.pages))
		l := NewLive(ix, LiveOptions{})
		prev := l.Snapshot()
		muts := guardMoves(rand.New(rand.NewSource(17)), g, batch, map[spatial.ID]bool{})
		cow, alloc, mallocs := publishCost(t, l, muts)
		tiles, pages := touched(prev, l.Snapshot())
		l.Close()
		t.Logf("grid %d (%d tiles): cow %d B, allocated %d B in %d objects, page refs %d B, touched %d tiles on %d pages",
			g, ix.numTiles, cow, alloc, mallocs, refBytes, tiles, pages)
		if cow == 0 || cow > maxCopy {
			t.Errorf("grid %d: publish copied %d bytes, want (0, %d]", g, cow, maxCopy)
		}
		// TotalAlloc is the independent witness: everything the publish
		// allocated is the counted copies (rounded up to allocator size
		// classes, at most an eighth more), the reference slice, and small
		// per-batch bookkeeping — never a copy the counter missed.
		if limit := cow + cow/4 + refBytes + 16<<10; alloc > limit {
			t.Errorf("grid %d: publish allocated %d bytes; %d counted + %d of page references allow %d",
				g, alloc, cow, refBytes, limit)
		}
		// One allocation per touched tile (its run) and page (its copy):
		// a tile whose classes are allocated apart, or whose insert
		// regrows the copy, goes over.
		if limit := int64(tiles + pages + perBatch); mallocs > limit {
			t.Errorf("grid %d: publish made %d heap allocations; %d touched tiles and %d pages allow %d",
				g, mallocs, tiles, pages, limit)
		}
		cows[i] = cow
	}
	if lo, hi := cows[0]*9/10, cows[0]*11/10; cows[1] < lo || cows[1] > hi {
		t.Errorf("copy grew with the index: %d bytes at %d^2 tiles, %d at %d^2",
			cows[0], grid, cows[1], 2*grid)
	}
}

// BenchmarkPublish measures one publish on an index of the benchmark
// index's scale, for a single move and for a bulk of 32; the two figures
// the tile page size was chosen by (small pages favor the bulk, large
// ones the single move, whose cost is the page-reference copy).
func BenchmarkPublish(b *testing.B) {
	const grid = 640 // 409,600 occupied tiles
	for _, moves := range []int{1, 32} {
		b.Run(fmt.Sprintf("moves=%d", moves), func(b *testing.B) {
			l := NewLive(guardIndex(grid), LiveOptions{})
			defer l.Close()
			rnd := rand.New(rand.NewSource(3))
			batches := make([][]Mutation, b.N)
			moved := make(map[spatial.ID]bool)
			for i := range batches {
				batches[i] = guardMoves(rnd, grid, 2*moves, moved)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Apply(batches[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(st.COWBytes)/float64(st.Publishes), "cowB/op")
		})
	}
}

// writtenSnapshot is BenchmarkPublish's index after 2,048 publishes of
// 32 moves each: 65,536 objects moved, most of the tile pages copied
// apart and each touched tile's run reallocated, and no count table.
var writtenSnapshot = sync.OnceValue(func() *Index {
	const grid, publishes, moves = 640, 2048, 32
	l := NewLive(guardIndex(grid), LiveOptions{})
	defer l.Close()
	rnd := rand.New(rand.NewSource(7))
	moved := make(map[spatial.ID]bool)
	for range publishes {
		if _, err := l.Apply(guardMoves(rnd, grid, 2*moves, moved)); err != nil {
			panic(err)
		}
	}
	return l.Snapshot()
})

// BenchmarkWrittenCount counts windows of extent 0.02 on writtenSnapshot:
// the read side of mixed_rw, whose count_only windows run on snapshots
// that copy-on-write publishes keep writing, so no count table serves
// them and every class is read through the tile runs.
func BenchmarkWrittenCount(b *testing.B) {
	ix := writtenSnapshot()
	rnd := rand.New(rand.NewSource(11))
	windows := make([]geom.Rect, 1024)
	for i := range windows {
		x, y := rnd.Float64()*0.98, rnd.Float64()*0.98
		windows[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += ix.WindowCount(windows[i%len(windows)])
	}
	b.ReportMetric(float64(n)/float64(b.N), "results/op")
}
