package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// lowerBuildGates shrinks the parallel-build thresholds so the pipeline
// runs on test-sized inputs, restoring them when the test ends.
func lowerBuildGates(t *testing.T) {
	t.Helper()
	savedEntries := minParallelBuildEntries
	savedShard := minParallelBuildShard
	savedDecTiles := minParallelDecTiles
	minParallelBuildEntries = 64
	minParallelBuildShard = 16
	minParallelDecTiles = 4
	t.Cleanup(func() {
		minParallelBuildEntries = savedEntries
		minParallelBuildShard = savedShard
		minParallelDecTiles = savedDecTiles
	})
}

// tileByID returns the tile with the given tile ID, or nil.
func tileByID(ix *Index, id int32) *tile {
	if slot := ix.slotOf(id); slot >= 0 {
		return ix.tile(int(slot))
	}
	return nil
}

// sameClassSlices fails unless the two tiles hold elementwise-identical
// classes — the parallel build's core guarantee.
func sameClassSlices(t *testing.T, seq, par *tile, id int32) {
	t.Helper()
	for c := ClassA; c <= ClassD; c++ {
		a, b := seq.class(c), par.class(c)
		if len(a) != len(b) {
			t.Fatalf("tile %d class %v: len %d (seq) vs %d (par)", id, c, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tile %d class %v entry %d: %+v (seq) vs %+v (par)", id, c, i, a[i], b[i])
			}
		}
	}
}

// sameDecTables fails unless the two indexes hold identical decomposed
// tables for the tile with the given ID (or both hold none). The side
// tables are keyed by slot, which the two builds assign differently.
func sameDecTables(t *testing.T, seq, par *Index, id int32) {
	t.Helper()
	if seq.Decomposed() != par.Decomposed() {
		t.Fatalf("tile %d: dec built %v (seq) vs %v (par)", id, seq.Decomposed(), par.Decomposed())
	}
	if !seq.Decomposed() {
		return
	}
	ss, ps := seq.slotOf(id), par.slotOf(id)
	for c := ClassA; c <= ClassD; c++ {
		sc := seq.dec.class(ss, seq.tile(int(ss)), c)
		pc := par.dec.class(ps, par.tile(int(ps)), c)
		for k, name := range [4]string{cmpXU: "xu", cmpXL: "xl", cmpYU: "yu", cmpYL: "yl"} {
			a, b := sc[k], pc[k]
			if len(a) != len(b) {
				t.Fatalf("tile %d class %d table %s: len %d vs %d", id, c, name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("tile %d class %d table %s row %d: %+v vs %+v", id, c, name, i, a[i], b[i])
				}
			}
		}
	}
}

// TestParallelBuildEquivalence is the property test of the parallel
// pipeline: across random datasets, grids (dense and sparse directories)
// and thread counts, the parallel build must produce identical per-tile,
// per-class entry slices — and, with Decompose, identical decomposed
// tables — as the sequential insert loop.
func TestParallelBuildEquivalence(t *testing.T) {
	lowerBuildGates(t)
	rnd := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		n := 80 + rnd.Intn(4000)
		grid := []int{2, 7, 16, 64}[rnd.Intn(4)]
		maxSide := []float64{0.01, 0.1, 0.5}[rnd.Intn(3)]
		sparse := rnd.Intn(3) == 0
		decompose := rnd.Intn(2) == 0
		threads := 2 + rnd.Intn(7)
		d := spatial.NewDataset(randRects(rnd, n, maxSide))
		opts := Options{
			NX: grid, NY: grid, Space: d.MBR(),
			Decompose: decompose,
		}
		cfg := fmt.Sprintf("iter %d (n=%d grid=%d sparse=%v dec=%v threads=%d)",
			iter, n, grid, sparse, decompose, threads)

		seqOpts := opts
		seqOpts.BuildThreads = 1
		seq := withDirectory(sparse, func() *Index { return Build(d, seqOpts) })
		parOpts := opts
		parOpts.BuildThreads = threads
		par := withDirectory(sparse, func() *Index { return Build(d, parOpts) })

		if seq.Len() != par.Len() {
			t.Fatalf("%s: size %d (seq) vs %d (par)", cfg, seq.Len(), par.Len())
		}
		if seq.numTiles != par.numTiles {
			t.Fatalf("%s: %d tiles (seq) vs %d (par)", cfg, seq.numTiles, par.numTiles)
		}
		if seq.extent != d.MBR() || par.extent != d.MBR() {
			t.Fatalf("%s: extent %v (seq) and %v (par), want the data's %v", cfg, seq.extent, par.extent, d.MBR())
		}
		if par.Epoch() != 0 {
			t.Fatalf("%s: parallel build published epoch %d, want 0", cfg, par.Epoch())
		}
		for slot := 0; slot < seq.numTiles; slot++ {
			id := seq.tileID(slot)
			st, pt := tileByID(seq, id), tileByID(par, id)
			if pt == nil {
				t.Fatalf("%s: tile %d missing from parallel build", cfg, id)
			}
			sameClassSlices(t, st, pt, id)
			sameDecTables(t, seq, par, id)
		}
		// And the parallel index must answer queries correctly.
		for q := 0; q < 20; q++ {
			w := randWindow(rnd, 0.3)
			got := windowIDs(par, w)
			noDuplicates(t, got, cfg)
			sameIDs(t, got, spatial.BruteWindow(d.Entries, w), cfg)
		}
	}
}

// TestParallelBuildFallbacks pins the gate behavior: datasets below the
// size gate, grids above the tile budget, and non-positive thread counts
// must all still produce a correct index (via the sequential path).
func TestParallelBuildFallbacks(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	d := spatial.NewDataset(randRects(rnd, 500, 0.1))

	t.Run("below-entry-gate", func(t *testing.T) {
		// Default gates: 500 entries stay sequential even with threads.
		ix := Build(d, Options{NX: 8, NY: 8, Space: d.MBR(), BuildThreads: 8})
		if ix.Len() != d.Len() {
			t.Fatalf("size %d, want %d", ix.Len(), d.Len())
		}
	})
	t.Run("above-tile-budget", func(t *testing.T) {
		lowerBuildGates(t)
		saved := maxParallelBuildTiles
		maxParallelBuildTiles = 16
		t.Cleanup(func() { maxParallelBuildTiles = saved })
		ix := Build(d, Options{NX: 8, NY: 8, Space: d.MBR(), BuildThreads: 8})
		w := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(d.Entries, w), "tile budget fallback")
	})
	t.Run("auto-threads", func(t *testing.T) {
		lowerBuildGates(t)
		// BuildThreads <= 0 resolves to DefaultThreads(); whatever it resolves to,
		// the index must be correct.
		for _, threads := range []int{0, -3} {
			ix := Build(d, Options{NX: 8, NY: 8, Space: d.MBR(), BuildThreads: threads})
			w := geom.Rect{MinX: 0.1, MinY: 0.3, MaxX: 0.7, MaxY: 0.8}
			sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(d.Entries, w), "auto threads")
		}
	})
}

// TestParallelBuildInvalidRect pins panic parity with the sequential
// insert loop: the lowest-index invalid rect is reported.
func TestParallelBuildInvalidRect(t *testing.T) {
	lowerBuildGates(t)
	rnd := rand.New(rand.NewSource(11))
	rects := randRects(rnd, 300, 0.1)
	rects[120] = geom.Rect{MinX: 2, MinY: 2, MaxX: 1, MaxY: 1} // inverted
	d := spatial.NewDataset(rects)
	for _, threads := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("threads=%d: no panic for invalid rect", threads)
				}
				want := fmt.Sprintf("core: inserting invalid rect %v (id %d)", rects[120], 120)
				if r != want {
					t.Fatalf("threads=%d: panic %q, want %q", threads, r, want)
				}
			}()
			Build(d, Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}, BuildThreads: threads})
		}()
	}
}

// TestParallelBuildThenUpdate verifies the slab carving is safe against
// later mutations: adding to a full exact-size tile run must reallocate
// (pinned capacity) instead of clobbering a neighbor tile's storage, and
// removes must leave other tiles intact.
func TestParallelBuildThenUpdate(t *testing.T) {
	lowerBuildGates(t)
	rnd := rand.New(rand.NewSource(99))
	rects := randRects(rnd, 1000, 0.05)
	d := spatial.NewDataset(rects)
	ix := Build(d, Options{NX: 8, NY: 8, Space: d.MBR(), BuildThreads: 4})

	entries := append([]spatial.Entry(nil), d.Entries...)
	extra := randRects(rnd, 200, 0.05)
	for i, r := range extra {
		e := spatial.Entry{Rect: r, ID: spatial.ID(10_000 + i)}
		ix.Insert(e)
		entries = append(entries, e)
	}
	for i := 0; i < 300; i += 3 {
		if !ix.Delete(entries[i].ID, entries[i].Rect) {
			t.Fatalf("delete %d failed", entries[i].ID)
		}
		entries[i] = entries[len(entries)-1]
		entries = entries[:len(entries)-1]
	}
	for q := 0; q < 30; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, windowIDs(ix, w), spatial.BruteWindow(entries, w), "post-update window")
	}
}

// TestParallelBuildConcurrentReaders is the -race stress test: while one
// published index serves window queries, parallel builds of fresh indices
// over the same dataset run concurrently. Builders and readers share the
// dataset slice read-only; the race detector would flag any accidental
// write to shared state.
func TestParallelBuildConcurrentReaders(t *testing.T) {
	lowerBuildGates(t)
	rnd := rand.New(rand.NewSource(5))
	d := spatial.NewDataset(randRects(rnd, 3000, 0.05))
	opts := Options{NX: 16, NY: 16, Space: d.MBR(), Decompose: true, BuildThreads: 4}
	published := Build(d, opts)

	windows := make([]geom.Rect, 32)
	for i := range windows {
		windows[i] = randWindow(rnd, 0.3)
	}
	want := make([][]spatial.ID, len(windows))
	for i, w := range windows {
		want[i] = sortIDs(spatial.BruteWindow(d.Entries, w))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (i + r) % len(windows)
				got := sortIDs(windowIDs(published.View(nil), windows[q]))
				if len(got) != len(want[q]) {
					t.Errorf("reader %d window %d: %d results, want %d", r, q, len(got), len(want[q]))
					return
				}
			}
		}(r)
	}
	for b := 0; b < 6; b++ {
		ix := Build(d, opts)
		if ix.Len() != d.Len() {
			t.Errorf("builder %d: size %d, want %d", b, ix.Len(), d.Len())
		}
	}
	close(stop)
	wg.Wait()
}
