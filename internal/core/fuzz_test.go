package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/grid"
	"github.com/twolayer/twolayer/internal/spatial"
)

// FuzzWindow drives the whole query stack from fuzzer-chosen geometry:
// dataset shape, grid granularity and query rectangle are all derived
// from the fuzz input, and the result is compared against brute force,
// on the index and on instrumented views of it (checkInstrumented).
// Run with `go test -fuzz=FuzzWindow ./internal/core`.
func FuzzWindow(f *testing.F) {
	f.Add(int64(1), uint8(8), 0.25, 0.25, 0.5, 0.5)
	f.Add(int64(2), uint8(1), -0.5, -0.5, 2.0, 2.0)
	f.Add(int64(3), uint8(64), 0.5, 0.5, 0.5, 0.5)
	f.Add(int64(4), uint8(13), 0.9, 0.1, 0.05, 0.9)
	f.Fuzz(func(t *testing.T, seed int64, gridSize uint8, x, y, w, h float64) {
		if gridSize == 0 {
			gridSize = 1
		}
		// Reject degenerate fuzz coordinates; the index itself rejects
		// invalid rects by contract.
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(w) || math.IsNaN(h) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || w < 0 || h < 0 ||
			math.IsInf(x+w, 0) || math.IsInf(y+h, 0) {
			t.Skip()
		}
		rnd := rand.New(rand.NewSource(seed))
		d := spatial.NewDataset(randRects(rnd, 200, 0.2))
		ix := Build(d, Options{NX: int(gridSize), NY: int(gridSize)})
		dec := Build(d, Options{NX: int(gridSize), NY: int(gridSize), Decompose: true})
		query := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}

		got := windowIDs(ix, query)
		seen := make(map[spatial.ID]bool, len(got))
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate result %d for %v", id, query)
			}
			seen[id] = true
		}
		want := spatial.BruteWindow(d.Entries, query)
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", query, len(got), len(want))
		}
		for _, id := range want {
			if !seen[id] {
				t.Fatalf("query %v: missing %d", query, id)
			}
		}
		// The decomposed variant must agree exactly, and attaching Stats
		// or a trace must change no answer.
		slices.Sort(want)
		checkInstrumented(t, ix, Query{Window: &query}, want, true)
		checkInstrumented(t, dec, Query{Window: &query}, want, false)
		// And the disk circumscribing the query window must be a superset.
		c := query.Center()
		radius := c.Dist(geom.Point{X: query.MinX, Y: query.MinY})
		if radius < 1e18 { // skip overflow-prone fuzz extremes
			if nd := ix.DiskCount(c, radius); nd < len(want) {
				t.Fatalf("circumscribed disk found %d < window's %d", nd, len(want))
			}
		}
	})
}

// FuzzCover drives the disk and region cover walks from fuzzer-chosen
// shapes on NX != NY grids: disks, convex hexagons, and concave U and C
// shapes whose rows or columns have gaps. Polygon vertices are snapped
// to tile edges, so the shapes fit tiles exactly and cover whole tiles
// inside their bars, and a third of the objects are snapped too. Every
// entry point is compared against a naive scan: Search unlimited and
// with a Limit, SearchCount, the minX-filtered count (at a tile edge or
// anywhere) and the instrumented views (checkInstrumented). Run with
// `go test -fuzz=FuzzCover ./internal/core`.
func FuzzCover(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(0), 0.5, 0.5, 0.3)
	f.Add(int64(2), uint8(16), uint8(11), uint8(1), 0.4, 0.6, 0.35)
	f.Add(int64(3), uint8(20), uint8(13), uint8(2), 0.1, 0.2, 0.7)
	f.Add(int64(4), uint8(13), uint8(21), uint8(3), 0.2, 0.1, 0.6)
	f.Add(int64(5), uint8(7), uint8(30), uint8(7), -0.1, 0.3, 1.2)
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, kind uint8, x, y, r float64) {
		if math.IsNaN(x+y+r) || math.Abs(x) > 4 || math.Abs(y) > 4 || r < 0 || r > 4 {
			t.Skip()
		}
		opts := Options{NX: 1 + int(nx%40), NY: 1 + int(ny%40), Space: unitSquare}
		if opts.NX == opts.NY {
			opts.NY++
		}
		rnd := rand.New(rand.NewSource(seed))
		g := grid.New(opts.Space, opts.NX, opts.NY)
		edge := func(i, j int) geom.Point { return g.TileMin(i, j) }
		rects := randRects(rnd, 300, 0.05+0.5*rnd.Float64())
		for i := 0; i < len(rects); i += 3 {
			lo := edge(rnd.Intn(opts.NX), rnd.Intn(opts.NY))
			hi := edge(rnd.Intn(opts.NX+1), rnd.Intn(opts.NY+1))
			rects[i] = geom.Rect{MinX: lo.X, MinY: lo.Y, MaxX: max(lo.X, hi.X), MaxY: max(lo.Y, hi.Y)}
		}
		d := spatial.NewDataset(rects)
		ix := Build(d, opts)

		// A shape in tile units: corner (ax, ay) at the tile edge nearest
		// (x, y), at least three tiles a side, bars a third of a side
		// thick, so that a large shape's bars hold covered tiles.
		ax, ay := int(math.Round(x*float64(opts.NX))), int(math.Round(y*float64(opts.NY)))
		sx, sy := 3+int(r*float64(opts.NX)), 3+int(r*float64(opts.NY))
		bx, by := max(1, sx/3), max(1, sy/3) // bar thickness
		var q Query
		var region Region
		switch kind % 4 {
		case 0:
			q.Disk = &geom.Disk{Center: geom.Point{X: x, Y: y}, Radius: r}
			region = *q.Disk
		case 1: // convex hexagon
			region = geom.NewPolygon(edge(ax+sx/3, ay), edge(ax+sx-sx/3, ay), edge(ax+sx, ay+sy/2),
				edge(ax+sx-sx/3, ay+sy), edge(ax+sx/3, ay+sy), edge(ax, ay+sy/2))
		case 2: // U, open at the top: its rows have gaps
			region = geom.NewPolygon(edge(ax, ay), edge(ax+sx, ay), edge(ax+sx, ay+sy), edge(ax+sx-bx, ay+sy),
				edge(ax+sx-bx, ay+by), edge(ax+bx, ay+by), edge(ax+bx, ay+sy), edge(ax, ay+sy))
		case 3: // C, open to the right: its columns have gaps
			region = geom.NewPolygon(edge(ax, ay), edge(ax+sx, ay), edge(ax+sx, ay+by), edge(ax+bx, ay+by),
				edge(ax+bx, ay+sy-by), edge(ax+sx, ay+sy-by), edge(ax+sx, ay+sy), edge(ax, ay+sy))
		}
		if q.Disk == nil {
			q.Region = region
		}

		var want []spatial.ID
		for _, e := range d.Entries {
			if region.IntersectsRect(e.Rect) {
				want = append(want, e.ID)
			}
		}
		slices.Sort(want)
		checkInstrumented(t, ix, q, want, true)
		if q.Disk != nil {
			// The disk through the region path, too.
			checkInstrumented(t, ix, Query{Region: region}, want, true)
		}

		limited := q
		limited.Limit = 1 + int(uint64(seed)%7)
		var got []spatial.ID
		complete, err := ix.Search(limited, func(e spatial.Entry) bool { got = append(got, e.ID); return true })
		if err != nil {
			t.Fatal(err)
		}
		if n := min(len(want), limited.Limit); len(got) != n || complete != (len(want) < limited.Limit) {
			t.Fatalf("%T limit %d: %d results, complete %v; want %d of %d", region, limited.Limit, len(got), complete, n, len(want))
		}
		noDuplicates(t, got, "limited search")
		for _, id := range got {
			if _, ok := slices.BinarySearch(want, id); !ok {
				t.Fatalf("%T limit %d: %d is not a match", region, limited.Limit, id)
			}
		}
		if n, _ := ix.SearchCount(limited); n != min(len(want), limited.Limit) {
			t.Fatalf("%T limit %d: count %d, want %d", region, limited.Limit, n, min(len(want), limited.Limit))
		}

		minX := edge(ax+int(kind>>2)%5-2, 0).X
		if kind&0x40 != 0 {
			minX = x - r/2
		}
		wantN := 0
		for _, id := range want {
			if d.Entries[id].Rect.MinX >= minX {
				wantN++
			}
		}
		n := ix.RegionCountFiltered(region, minX)
		if q.Disk != nil {
			if nd := ix.DiskCountFiltered(q.Disk.Center, q.Disk.Radius, minX); nd != n {
				t.Fatalf("disk minX %g: DiskCountFiltered %d, RegionCountFiltered %d", minX, nd, n)
			}
		}
		if n != wantN {
			t.Fatalf("%T minX %g: count %d, want %d", region, minX, n, wantN)
		}
	})
}

// checkInstrumented evaluates the plain (not exact, unlimited) query q
// on ix, on a Stats view and on a traced view, through SearchCount and
// SearchIDs: every answer must be want (sorted), and a view's counters
// those of the one query it ran — Results equal to the count, FastCounts
// 1 for a count and 0 for a stream and, on a plain index, the per-class
// entries summing to EntriesScanned.
func checkInstrumented(t *testing.T, ix *Index, q Query, want []spatial.ID, plain bool) {
	t.Helper()
	w := q.MBR()
	for _, kind := range []string{"index", "stats", "trace"} {
		for _, count := range []bool{true, false} {
			var s *Stats
			v := ix
			switch kind {
			case "stats":
				s = &Stats{}
				v = ix.View(s)
			case "trace":
				tr := &Trace{}
				s, v = &tr.Stats, ix.ViewTraced(tr)
			}
			var n int
			if count {
				n, _ = v.SearchCount(q)
			} else {
				ids, _ := v.SearchIDs(q, nil)
				slices.Sort(ids)
				if !slices.Equal(ids, want) {
					t.Fatalf("%s Search %v (plain %v) = %v, want %v", kind, w, plain, ids, want)
				}
				n = len(ids)
			}
			if n != len(want) {
				t.Fatalf("%s SearchCount %v (plain %v) = %d, want %d", kind, w, plain, n, len(want))
			}
			if s == nil {
				continue
			}
			fast := int64(0)
			if count {
				fast = 1
			}
			if s.Results != int64(n) || s.FastCounts != fast {
				t.Fatalf("%s count=%v %v (plain %v): Results %d, FastCounts %d, want %d, %d",
					kind, count, w, plain, s.Results, s.FastCounts, n, fast)
			}
			if sum := s.ClassScanned[0] + s.ClassScanned[1] + s.ClassScanned[2] + s.ClassScanned[3]; plain && sum != s.EntriesScanned {
				t.Fatalf("%s count=%v %v: ClassScanned sums to %d, EntriesScanned %d", kind, count, w, sum, s.EntriesScanned)
			}
		}
	}
}

// FuzzSnapshotDecode: Load must treat arbitrary bytes as a hostile
// snapshot — returning an error for anything malformed, never panicking
// or over-allocating. A successfully decoded index must answer a window
// query without crashing. Run with
// `go test -fuzz=FuzzSnapshotDecode ./internal/core`.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with real snapshots (v1 and v2) so the fuzzer starts from
	// structurally valid bytes and mutates inward. Seeds are kept tiny:
	// the engine's per-exec overhead grows sharply with corpus entry
	// size, and a few hundred bytes already cover every format feature.
	rnd := rand.New(rand.NewSource(99))
	ix, _ := buildRandom(rnd, 6, 0.2, Options{NX: 2, NY: 2, Decompose: true})
	ix.SetEpoch(3)
	var v2, v1 bytes.Buffer
	if _, err := ix.WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	if _, err := ix.writeVersion(&v1, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add([]byte("TL2I"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be internally consistent enough to query.
		// Skip the query for huge grids: a whole-space window legitimately
		// visits every covered tile, which is O(nx*ny) and would stall the
		// fuzzer without exercising anything new.
		if g := loaded.Grid(); g.NX*g.NY <= 1<<16 {
			q := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
			_ = loaded.WindowCount(q)
		}
		_ = loaded.Len()
	})
}

// Op codes of the FuzzCOWChain byte stream (opcode byte modulo
// chainOpCount, then the operand bytes named here).
const (
	chainOpInsert  = iota // x y w h
	chainOpDelete         // pick
	chainOpMove           // pick x y w h
	chainOpPublish        // retain the head as a snapshot, open the next epoch
	chainOpDropOldest
	chainOpRebuild // BuildDecomposed on the head
	chainOpCount
)

// chainFuzzBase builds the shared epoch-0 ancestor of every FuzzCOWChain
// execution with the given configuration: one small object alone in each
// of the first tilePageSize-2 tiles of the bottom row, so two inserts
// elsewhere fill the tail page and the third appends a new one, and any
// delete of a base object empties its tile.
func chainFuzzBase(sparse, decompose bool) (*Index, []spatial.Entry) {
	rects := make([]geom.Rect, tilePageSize-2)
	for i := range rects {
		x := (float64(i) + 0.25) / chainGrid
		rects[i] = geom.Rect{MinX: x, MinY: 0.25 / chainGrid, MaxX: x + 0.5/chainGrid, MaxY: 0.75 / chainGrid}
	}
	d := spatial.NewDataset(rects)
	ix := withDirectory(sparse, func() *Index {
		return Build(d, Options{NX: chainGrid, NY: chainGrid, Space: unitSquare, Decompose: decompose, BuildThreads: 1})
	})
	return ix, d.Entries
}

// runChainOps decodes data as a configuration byte plus an op stream and
// runs it against a cowChain, verifying every retained snapshot after
// every publish and once more at the end.
func runChainOps(t *testing.T, data []byte) *cowChain {
	if len(data) == 0 {
		return nil
	}
	base, entries := chainFuzzBase(data[0]&1 != 0, data[0]&2 != 0)
	c := newCowChain(base, entries)
	data = data[1:]
	// rect decodes four operand bytes: a corner anywhere in the space and
	// sides of up to two tiles.
	rect := func(b []byte) geom.Rect {
		x, y := float64(b[0])/256, float64(b[1])/256
		return geom.Rect{MinX: x, MinY: y,
			MaxX: x + float64(b[2])/128/chainGrid, MaxY: y + float64(b[3])/128/chainGrid}
	}
	operands := [chainOpCount]int{chainOpInsert: 4, chainOpDelete: 1, chainOpMove: 5}
	for len(data) > 0 {
		op := int(data[0]) % chainOpCount
		if len(data) < 1+operands[op] {
			break
		}
		arg := data[1 : 1+operands[op]]
		data = data[1+operands[op]:]
		var err error
		switch op {
		case chainOpInsert:
			err = c.applyHead(c.insertOp(rect(arg)))
		case chainOpDelete:
			err = c.applyHead(c.removeOp(int(arg[0])))
		case chainOpMove:
			err = c.applyHead(c.moveOp(int(arg[0]), rect(arg[1:])))
		case chainOpPublish:
			c.publish(true)
			if len(c.retained) > 6 {
				c.dropOldest()
			}
			err = c.checkAll()
		case chainOpDropOldest:
			c.dropOldest()
		case chainOpRebuild:
			err = c.rebuild()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	c.publish(true)
	if err := c.checkAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// Seed streams of FuzzCOWChain, one per structural case the paged
// tables must get right (TestCOWChainSeeds asserts each reaches its
// case).
var (
	// Four inserts into empty tiles: the second fills the shared tail
	// page, the third appends a page; published in between.
	chainSeedTailAppend = []byte{0,
		chainOpInsert, 10, 128, 20, 20, chainOpInsert, 60, 128, 20, 20, chainOpPublish,
		chainOpInsert, 110, 128, 20, 20, chainOpInsert, 160, 200, 20, 20, chainOpPublish}
	// Publish, then write tiles of the base's slab-carved page from two
	// later epochs, with a rebuild of the decomposed tables in between.
	chainSeedFirstTouch = []byte{2,
		chainOpPublish, chainOpMove, 3, 4, 1, 60, 60, chainOpPublish,
		chainOpRebuild, chainOpPublish, chainOpDelete, 5, chainOpPublish}
	// Delete an object that is alone in its tile, publish, repopulate the
	// emptied tile, drop the oldest snapshot; sparse directory.
	chainSeedEmptyTile = []byte{1,
		chainOpDelete, 0, chainOpPublish, chainOpInsert, 2, 2, 30, 30, chainOpPublish,
		chainOpDropOldest, chainOpDelete, 1, chainOpPublish}
	// Objects of classes A (two), B, C and D of tile (20,20), published,
	// then a delete of the first A object: the remove shifts B, C and D.
	chainSeedDeleteAhead = []byte{0,
		chainOpInsert, 130, 130, 10, 10, chainOpInsert, 131, 131, 10, 10,
		chainOpInsert, 130, 124, 10, 128, chainOpInsert, 124, 130, 128, 10,
		chainOpInsert, 124, 124, 128, 128, chainOpPublish, chainOpDelete, 30, chainOpPublish}
	// Objects of classes A, C and D of tile (20,20), published, then two
	// inserts into B: each add shifts C and D.
	chainSeedInsertAhead = []byte{0,
		chainOpInsert, 130, 130, 10, 10, chainOpInsert, 124, 130, 128, 10,
		chainOpInsert, 124, 124, 128, 128, chainOpPublish,
		chainOpInsert, 130, 124, 10, 128, chainOpInsert, 132, 125, 10, 128, chainOpPublish}
)

// The tile of chainGrid the run-shift seeds fill.
const seedTileX, seedTileY = 20, 20

// FuzzCOWChain feeds arbitrary op streams — inserts, deletes, moves,
// publishes, dropped snapshots, decomposed rebuilds — to the snapshot
// chain harness of cow_chain_test.go: whatever the interleaving, every
// retained snapshot must keep matching the naive model it was published
// with. Run with `go test -fuzz=FuzzCOWChain ./internal/core`.
func FuzzCOWChain(f *testing.F) {
	f.Add(chainSeedTailAppend)
	f.Add(chainSeedFirstTouch)
	f.Add(chainSeedEmptyTile)
	f.Add(chainSeedDeleteAhead)
	f.Add(chainSeedInsertAhead)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip() // verification is quadratic in the number of publishes
		}
		runChainOps(t, data)
	})
}

// TestCOWChainSeeds pins what each FuzzCOWChain seed is for.
func TestCOWChainSeeds(t *testing.T) {
	c := runChainOps(t, chainSeedTailAppend)
	if first, last := c.retained[0].ix, c.head; len(first.pages) != 1 || len(last.pages) != 2 {
		t.Errorf("tail-append seed: %d tile pages grew to %d, want 1 to 2", len(first.pages), len(last.pages))
	}

	c = runChainOps(t, chainSeedFirstTouch)
	if first, last := c.retained[0].ix, c.head; first.pages[0] == last.pages[0] {
		t.Error("first-touch seed: the head still references the base's page")
	} else if first.pages[0].epoch != 0 {
		t.Errorf("first-touch seed: the base's page changed owner to epoch %d", first.pages[0].epoch)
	}

	c = runChainOps(t, chainSeedEmptyTile)
	empty := 0
	for slot := 0; slot < c.head.numTiles; slot++ {
		if c.head.tile(slot).size() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("empty-tile seed: no tile of the head is empty")
	}

	for _, seed := range []struct {
		name string
		data []byte
		want [4]int // class lengths of the seed tile at the end
	}{
		{"delete-ahead", chainSeedDeleteAhead, [4]int{1, 1, 1, 1}},
		{"insert-ahead", chainSeedInsertAhead, [4]int{1, 2, 1, 1}},
	} {
		c = runChainOps(t, seed.data)
		tl := c.head.tileAt(seedTileX, seedTileY)
		var got [4]int
		for cl := ClassA; cl <= ClassD && tl != nil; cl++ {
			got[cl] = len(tl.class(cl))
		}
		if got != seed.want {
			t.Errorf("%s seed: tile (%d,%d) holds classes of %v entries, want %v",
				seed.name, seedTileX, seedTileY, got, seed.want)
		}
	}
}

// FuzzKNN checks KNN and KNNExact against brute force on grids with
// NX != NY (each 1..64), over objects and query points snapped to tile
// edges or lying outside the space, for k from 1 to 30. Edges come from
// the grid's own TileMin, so objects and queries sit exactly where the
// replica-skipping rule of the kNN search decides by cell.
// Run with `go test -fuzz=FuzzKNN ./internal/core`.
func FuzzKNN(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(8), uint8(4), 0.5, 0.5, uint8(0))
	f.Add(int64(2), uint8(0), uint8(63), uint8(29), -0.5, 2.0, uint8(1))
	f.Add(int64(3), uint8(62), uint8(2), uint8(0), 0.25, 0.75, uint8(3))
	f.Add(int64(4), uint8(6), uint8(12), uint8(16), 1.0, 0.0, uint8(2))
	// Outside the space, where the rings are bounded by the objects' extent.
	f.Add(int64(5), uint8(31), uint8(31), uint8(9), 1.2, 0.5, uint8(0))
	f.Add(int64(6), uint8(40), uint8(17), uint8(9), -0.3, 1.4, uint8(0))
	f.Add(int64(7), uint8(3), uint8(50), uint8(29), 0.5, -3.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nx8, ny8, k8 uint8, qx, qy float64, snap uint8) {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.Abs(qx) > 1e9 || math.Abs(qy) > 1e9 {
			t.Skip()
		}
		nx, ny, k := int(nx8)%64+1, int(ny8)%64+1, int(k8)%30+1
		space := geom.Rect{MaxX: 1, MaxY: 1}
		g := grid.New(space, nx, ny)
		rnd := rand.New(rand.NewSource(seed))
		// span draws an extent along one axis: half the time between two
		// tile edges (some beyond the space), otherwise free.
		span := func(edge func(i int) float64, n int) (lo, hi float64) {
			if rnd.Intn(2) == 0 {
				i := rnd.Intn(n+5) - 2
				return edge(i), edge(i + rnd.Intn(3))
			}
			lo = rnd.Float64()*1.4 - 0.2
			return lo, lo + rnd.Float64()*rnd.Float64()*0.5
		}
		edgeX := func(i int) float64 { return g.TileMin(i, 0).X }
		edgeY := func(i int) float64 { return g.TileMin(0, i).Y }
		geoms := make([]geom.Geometry, 100+rnd.Intn(100))
		for i := range geoms {
			x0, x1 := span(edgeX, nx)
			y0, y1 := span(edgeY, ny)
			if rnd.Intn(2) == 0 {
				geoms[i] = geom.RectGeometry(geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
			} else {
				geoms[i] = geom.NewLineString(geom.Point{X: x0, Y: y1}, geom.Point{X: x1, Y: y0})
			}
		}
		d := spatial.NewGeomDataset(geoms)
		ix := Build(d, Options{NX: nx, NY: ny, Space: space})
		if snap&1 != 0 {
			qx = edgeX(rnd.Intn(nx+5) - 2)
		}
		if snap&2 != 0 {
			qy = edgeY(rnd.Intn(ny+5) - 2)
		}
		q := geom.Point{X: qx, Y: qy}
		ctx := fmt.Sprintf("grid %dx%d q=%v k=%d", nx, ny, q, k)
		sameDists(t, ctx+" KNN", ix.KNN(q, k), bruteKNN(d.Entries, q, k))
		sameDists(t, ctx+" KNNExact", ix.KNNExact(q, k), bruteKNNExact(d, q, k))
	})
}
