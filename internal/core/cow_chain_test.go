package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file checks that structural sharing is invisible: a chain of
// copy-on-write snapshots shares tile pages, directory pages and class
// slices, and every snapshot that was ever published must keep answering
// exactly as it did at the moment it was published, whatever its
// successors write afterwards. cowChain is the harness — a writable head,
// a naive model of what the head should hold, and the retained snapshots
// each paired with its own frozen copy of the model — driven by a seeded
// random stream in the property tests below and by the fuzzer's bytes in
// FuzzCOWChain.

// chainSnap is one retained snapshot and the frozen model it must match.
type chainSnap struct {
	ix   *Index
	want []spatial.Entry // sorted by ID
	dec  *decIndex       // the 2-layer+ table it was retained with
}

type cowChain struct {
	head  *Index // the writable clone ops are applied to
	model map[spatial.ID]geom.Rect
	ids   []spatial.ID // live IDs, for picking delete/move victims
	next  spatial.ID

	mu       sync.Mutex // guards retained against concurrent readers
	retained []chainSnap
	kick     chan struct{} // see startReaders
}

// newCowChain takes over base (which stays untouched as the chain's
// epoch-0 ancestor) and its contents.
func newCowChain(base *Index, entries []spatial.Entry) *cowChain {
	c := &cowChain{head: base.CloneCOW(), model: make(map[spatial.ID]geom.Rect)}
	for _, e := range entries {
		c.model[e.ID] = e.Rect
		c.ids = append(c.ids, e.ID)
		c.next = max(c.next, e.ID+1)
	}
	c.retain(base)
	return c
}

// The three ops below update the model and return the mutations that do
// the same to an index; the caller applies them to the head (applyHead)
// or submits them to a Live index.

func (c *cowChain) insertOp(r geom.Rect) []Mutation {
	e := spatial.Entry{ID: c.next, Rect: r}
	c.next++
	c.model[e.ID] = r
	c.ids = append(c.ids, e.ID)
	return []Mutation{{Entry: e}}
}

// removeOp deletes the pick-th live object (modulo the live count).
func (c *cowChain) removeOp(pick int) []Mutation {
	if len(c.ids) == 0 {
		return nil
	}
	i := pick % len(c.ids)
	id := c.ids[i]
	m := Mutation{Delete: true, Entry: spatial.Entry{ID: id, Rect: c.model[id]}}
	delete(c.model, id)
	c.ids[i] = c.ids[len(c.ids)-1]
	c.ids = c.ids[:len(c.ids)-1]
	return []Mutation{m}
}

// moveOp re-homes the pick-th live object at r, keeping its ID.
func (c *cowChain) moveOp(pick int, r geom.Rect) []Mutation {
	if len(c.ids) == 0 {
		return nil
	}
	id := c.ids[pick%len(c.ids)]
	old := c.model[id]
	c.model[id] = r
	return []Mutation{
		{Delete: true, Entry: spatial.Entry{ID: id, Rect: old}},
		{Entry: spatial.Entry{ID: id, Rect: r}},
	}
}

// applyHead applies muts to the writable head. Every delete names a live
// object at its exact MBR, so one that finds nothing is a failure. Any
// write must drop the head's derived read tables, whole.
func (c *cowChain) applyHead(muts []Mutation) error {
	for _, m := range muts {
		if !m.Delete {
			c.head.Insert(m.Entry)
		} else if !c.head.Delete(m.Entry.ID, m.Entry.Rect) {
			return fmt.Errorf("delete of live object %d at %v found nothing", m.Entry.ID, m.Entry.Rect)
		}
	}
	if len(muts) > 0 && (c.head.Decomposed() || c.head.counts != nil) {
		return fmt.Errorf("a write left the head's read tables (2-layer+ %v, counts %v)",
			c.head.Decomposed(), c.head.counts != nil)
	}
	return nil
}

// rebuild builds 2-layer+ tables on the head. That must write no tile
// page: every page reference stays what it was.
func (c *cowChain) rebuild() error {
	pages := slices.Clone(c.head.pages)
	c.head.BuildDecomposed()
	if !slices.Equal(c.head.pages, pages) {
		return fmt.Errorf("BuildDecomposed replaced tile pages of the head")
	}
	return nil
}

// publish freezes the head as a snapshot (retained if asked) and opens
// the next epoch's writable clone.
func (c *cowChain) publish(retain bool) {
	if retain {
		c.retain(c.head)
	}
	c.head = c.head.CloneCOW()
}

func (c *cowChain) retain(ix *Index) {
	want := make([]spatial.Entry, 0, len(c.model))
	for id, r := range c.model {
		want = append(want, spatial.Entry{ID: id, Rect: r})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	c.mu.Lock()
	c.retained = append(c.retained, chainSnap{ix: ix, want: want, dec: ix.dec})
	c.mu.Unlock()
}

func (c *cowChain) dropOldest() {
	c.mu.Lock()
	if len(c.retained) > 0 {
		c.retained = c.retained[1:]
	}
	c.mu.Unlock()
}

// snapshots returns the retained snapshots at this moment.
func (c *cowChain) snapshots() []chainSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]chainSnap(nil), c.retained...)
}

// checkAll verifies every retained snapshot against its frozen model,
// the oldest and the newest also through a WriteTo/Load round trip.
func (c *cowChain) checkAll() error {
	snaps := c.snapshots()
	for i, s := range snaps {
		if err := checkSnap(s, i == 0 || i == len(snaps)-1); err != nil {
			return fmt.Errorf("snapshot at epoch %d: %w", s.ix.Epoch(), err)
		}
	}
	return nil
}

// startReaders runs two goroutines that each verify one retained
// snapshot per kick (see kickReaders), concurrently with whatever the
// caller does next; the returned function stops and waits for them.
func (c *cowChain) startReaders(t *testing.T) (stop func()) {
	c.kick = make(chan struct{}, 2)
	var wg sync.WaitGroup
	for r := 0; r < cap(c.kick); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 3 {
				if _, ok := <-c.kick; !ok {
					return
				}
				snaps := c.snapshots()
				if err := checkSnap(snaps[i%len(snaps)], true); err != nil {
					t.Errorf("concurrent reader: %v", err)
				}
			}
		}(r)
	}
	return func() { close(c.kick); wg.Wait() }
}

// kickReaders lets each reader verify one more snapshot; the writes that
// follow on the caller's goroutine run beside those reads.
func (c *cowChain) kickReaders() {
	for i := 0; i < cap(c.kick); i++ {
		select {
		case c.kick <- struct{}{}:
		default: // still busy with the previous one
		}
	}
}

// chainWindows are the probe windows of checkSnap: the whole space, one
// sticking out of it, interior ones of several sizes, and a degenerate
// point.
var chainWindows = []geom.Rect{
	{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
	{MinX: -0.2, MinY: 0.3, MaxX: 0.4, MaxY: 1.3},
	{MinX: 0.1, MinY: 0.1, MaxX: 0.35, MaxY: 0.3},
	{MinX: 0.45, MinY: 0.05, MaxX: 0.95, MaxY: 0.55},
	{MinX: 0.62, MinY: 0.6, MaxX: 0.66, MaxY: 0.97},
	{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
}

// checkSnap compares everything a snapshot can be asked against the
// naive model: window results and counts, ForEach, the partition
// summary, and — with roundTrip — the same window results from an index
// loaded from the snapshot's WriteTo bytes. It also checks that the
// snapshot still holds the 2-layer+ table it was retained with, whatever
// its successors wrote. It only reads the snapshot, so any number may
// run concurrently.
func checkSnap(s chainSnap, roundTrip bool) error {
	ix, want := s.ix, s.want
	if ix.dec != s.dec {
		return fmt.Errorf("2-layer+ table changed under the snapshot (held one: %v, holds one: %v)",
			s.dec != nil, ix.dec != nil)
	}
	if ix.Len() != len(want) {
		return fmt.Errorf("Len = %d, model has %d", ix.Len(), len(want))
	}
	var all []spatial.Entry
	ix.ForEach(func(e spatial.Entry) { all = append(all, e) })
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(all) != len(want) {
		return fmt.Errorf("ForEach visited %d entries, model has %d", len(all), len(want))
	}
	for i := range all {
		if all[i] != want[i] {
			return fmt.Errorf("ForEach entry %d = %v, model has %v", i, all[i], want[i])
		}
	}
	if err := checkWindows(ix, want, "snapshot"); err != nil {
		return err
	}

	// The partition summary, recomputed from the model and the grid.
	g := ix.Grid()
	var naive PartitionStats
	perTile := make(map[int]int)
	for _, e := range want {
		ax, ay, bx, by := g.CoverRect(e.Rect)
		w, h := bx-ax, by-ay
		naive.ClassCounts[ClassA]++
		naive.ClassCounts[ClassB] += h
		naive.ClassCounts[ClassC] += w
		naive.ClassCounts[ClassD] += w * h
		for ty := ay; ty <= by; ty++ {
			for tx := ax; tx <= bx; tx++ {
				perTile[g.TileID(tx, ty)]++
			}
		}
	}
	for _, n := range perTile {
		naive.Replicas += n
		naive.MaxTileEntries = max(naive.MaxTileEntries, n)
	}
	ps := ix.PartitionStats()
	if ps.Objects != len(want) || ps.OccupiedTiles != len(perTile) ||
		ps.Replicas != naive.Replicas || ps.MaxTileEntries != naive.MaxTileEntries ||
		ps.ClassCounts != naive.ClassCounts {
		return fmt.Errorf("PartitionStats = %+v, model gives %d objects in %d tiles, %d replicas (max %d), classes %v",
			ps, len(want), len(perTile), naive.Replicas, naive.MaxTileEntries, naive.ClassCounts)
	}

	if !roundTrip {
		return nil
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		return fmt.Errorf("WriteTo: %w", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		return fmt.Errorf("Load of the snapshot's own bytes: %w", err)
	}
	if loaded.Len() != len(want) || loaded.Epoch() != ix.Epoch() || loaded.Decomposed() != ix.Decomposed() {
		return fmt.Errorf("round trip: Len %d epoch %d 2-layer+ %v, want %d, %d and %v",
			loaded.Len(), loaded.Epoch(), loaded.Decomposed(), len(want), ix.Epoch(), ix.Decomposed())
	}
	return checkWindows(loaded, want, "round trip")
}

func checkWindows(ix *Index, want []spatial.Entry, what string) error {
	for _, w := range chainWindows {
		got := sortIDs(ix.WindowIDs(w, nil))
		exp := sortIDs(spatial.BruteWindow(want, w))
		if len(got) != len(exp) {
			return fmt.Errorf("%s: window %v returned %d ids, model has %d", what, w, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				return fmt.Errorf("%s: window %v result %d = %d, model has %d", what, w, i, got[i], exp[i])
			}
		}
		if n := ix.WindowCountFast(w); n != len(exp) {
			return fmt.Errorf("%s: WindowCountFast(%v) = %d, model has %d", what, w, n, len(exp))
		}
	}
	return nil
}

// chainConfig is one point of the build matrix the chain tests cover.
type chainConfig struct {
	sparse, decompose, parallel bool
}

func (c chainConfig) String() string {
	return fmt.Sprintf("sparse=%v,dec=%v,par=%v", c.sparse, c.decompose, c.parallel)
}

var chainConfigs = func() []chainConfig {
	var out []chainConfig
	for i := 0; i < 8; i++ {
		out = append(out, chainConfig{sparse: i&1 != 0, decompose: i&2 != 0, parallel: i&4 != 0})
	}
	return out
}()

// chainGrid is wide enough for several directory pages and, with the
// seed below, several tile pages — with most of the grid still empty, so
// the stream keeps allocating tiles and crossing the tail page.
const chainGrid = 40

// chainBase builds the chain's epoch-0 index: objects clustered in one
// corner of the space.
func chainBase(rnd *rand.Rand, cfg chainConfig, n int) (*Index, []spatial.Entry) {
	rects := randRects(rnd, n, 0.03)
	for i := range rects {
		r := &rects[i]
		r.MinX, r.MaxX, r.MinY, r.MaxY = r.MinX*0.3, r.MaxX*0.3, r.MinY*0.3, r.MaxY*0.3
	}
	d := spatial.NewDataset(rects)
	opts := Options{NX: chainGrid, NY: chainGrid, Space: unitSquare,
		SparseDirectory: cfg.sparse, Decompose: cfg.decompose, BuildThreads: 1}
	if cfg.parallel {
		opts.BuildThreads = 3
	}
	return Build(d, opts), append([]spatial.Entry(nil), d.Entries...)
}

// chainRect draws a rectangle anywhere in the space, up to two tiles
// wide, occasionally sticking out of it.
func chainRect(rnd *rand.Rand) geom.Rect {
	x, y := rnd.Float64()*1.05-0.02, rnd.Float64()*1.05-0.02
	return geom.Rect{MinX: x, MinY: y,
		MaxX: x + rnd.Float64()*2/chainGrid, MaxY: y + rnd.Float64()*2/chainGrid}
}

// randomOp draws one insert (40%), move (30%) or delete (30%).
func (c *cowChain) randomOp(rnd *rand.Rand) []Mutation {
	switch k := rnd.Intn(10); {
	case k < 4:
		return c.insertOp(chainRect(rnd))
	case k < 7:
		return c.moveOp(rnd.Intn(1<<20), chainRect(rnd))
	default:
		return c.removeOp(rnd.Intn(1 << 20))
	}
}

// TestCOWChainProperty drives CloneCOW chains directly: random inserts,
// deletes and moves between publishes, every third snapshot retained,
// every retained snapshot re-verified after every later publish — while
// reader goroutines verify retained snapshots concurrently with the
// writes to the head, which is what turns a missed page copy into a
// race report under -race. The decomposed variants also build 2-layer+
// tables on fresh clones, which must leave every page reference the
// parent's, and retain them, so a retained snapshot keeps its table
// while the head's next write drops the head's copy (applyHead and
// checkSnap).
func TestCOWChainProperty(t *testing.T) {
	lowerBuildGates(t)
	for ci, cfg := range chainConfigs {
		t.Run(cfg.String(), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(500 + ci)))
			base, entries := chainBase(rnd, cfg, 300)
			tilesAtStart := base.numTiles
			c := newCowChain(base, entries)

			defer c.startReaders(t)()

			emptied := false
			for step := 0; step < 27; step++ {
				for op := 0; op < 12; op++ {
					if err := c.applyHead(c.randomOp(rnd)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if step == 16 {
					// Empty a whole region, so tiles go from populated to
					// empty while older snapshots still list their entries.
					for i := 0; i < len(c.ids); {
						if r := c.model[c.ids[i]]; r.MaxX < 0.15 && r.MaxY < 0.15 {
							if err := c.applyHead(c.removeOp(i)); err != nil {
								t.Fatal(err)
							}
							emptied = true
						} else {
							i++
						}
					}
				}
				rebuilt := cfg.decompose && step%7 == 6
				if rebuilt {
					parent := c.head
					c.publish(false)
					if err := c.rebuild(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if !slices.Equal(c.head.pages, parent.pages) {
						t.Fatalf("step %d: a rebuilt clone's page references differ from its parent's", step)
					}
				}
				c.publish(step%3 == 0 || rebuilt)
				if step%9 == 8 {
					c.dropOldest()
				}
				if err := c.checkAll(); err != nil {
					t.Fatalf("after publish %d: %v", step, err)
				}
				c.kickReaders() // they read while the next step writes
			}
			if !emptied {
				t.Fatal("the stream never emptied a region; the test lost a case")
			}
			if got := c.head.numTiles; got < tilesAtStart+2*tilePageSize {
				t.Fatalf("the stream allocated %d new tiles; want at least two tile pages' worth",
					got-tilesAtStart)
			}
		})
	}
}

// TestCOWChainLive runs the same kind of stream through a Live index —
// the apply loop's CloneCOW, apply and swap — with the snapshots it
// publishes retained and re-verified, and with concurrent readers, as
// above. The apply loop never rebuilds 2-layer+ tables, so on a
// decomposed seed the first publish drops them for good while the seed,
// retained by the harness, keeps its own.
func TestCOWChainLive(t *testing.T) {
	lowerBuildGates(t)
	for ci, cfg := range chainConfigs {
		if !cfg.parallel {
			continue // how the base was built is TestCOWChainProperty's axis
		}
		t.Run(cfg.String(), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(900 + ci)))
			base, entries := chainBase(rnd, cfg, 300)
			// The chain harness supplies the model and the retained list;
			// its own head is unused, the Live index does the writing.
			c := newCowChain(base, entries)
			if base.Decomposed() != cfg.decompose {
				t.Fatalf("seed built with Decompose %v holds 2-layer+ tables: %v", cfg.decompose, base.Decomposed())
			}
			l := NewLive(base, LiveOptions{})
			defer l.Close()

			defer c.startReaders(t)()

			for step := 0; step < 21; step++ {
				var muts []Mutation
				for op := 0; op < 10; op++ {
					muts = append(muts, c.randomOp(rnd)...)
				}
				res, err := l.Apply(muts)
				if err != nil {
					t.Fatal(err)
				}
				for i, ok := range res.Found {
					if !ok {
						t.Fatalf("step %d: mutation %d found nothing", step, i)
					}
				}
				if step%3 == 0 {
					c.retain(l.Snapshot())
				}
				if step%9 == 8 {
					c.dropOldest()
				}
				if err := c.checkAll(); err != nil {
					t.Fatalf("after publish %d: %v", step, err)
				}
				if l.Snapshot().Decomposed() {
					t.Fatalf("after publish %d: the snapshot still holds 2-layer+ tables", step)
				}
				c.kickReaders() // they read while the next step writes
			}
		})
	}
}
