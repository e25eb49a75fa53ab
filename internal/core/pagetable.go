package core

import (
	"unsafe"

	"github.com/twolayer/twolayer/internal/spatial"
)

// This file holds the index's two persistent tables — the tile table
// (slot -> tile header and grid tile ID) and the tile directory (grid
// tile ID -> slot) — as fixed-size pages behind a per-index slice (or,
// for the sparse directory, map) of page references. The paging exists
// for copy-on-write publishing (CloneCOW, Live): a snapshot and its
// successor share every page neither has written, so a publish copies
// the pages its batch touched and nothing proportional to the number of
// tiles or grid cells. Keeping per-tile headers in small cache-sized
// blocks rather than one flat array follows "A Two-level Spatial
// In-Memory Index" (arXiv 2005.08600).
//
// Ownership. Every page carries the epoch of the index that may write
// it. An index writes a page only when page.epoch == ix.epoch; otherwise
// it first copies the page, stamps the copy with its own epoch and
// swings its private page reference to the copy (ownTilePage, setSlot). CloneCOW raises the epoch of the clone, so at that
// moment the clone owns no page at all and its first write to each one
// copies; the snapshot it was cloned from — and every older one — keeps
// referencing the original pages, which nobody writes any more. That is
// the whole argument for why a reader of an old snapshot never observes
// a later write. A directly built index sits at epoch 0 with all of its
// pages stamped 0, so it owns everything and never copies.
//
// Below the page there is a second, finer level of sharing: a copied
// tile page still shares its tiles' runs with the older snapshots, and
// tile.epoch tracks those the same way (ownTile). A tile header is 48 B
// (the run's slice header, four int32 class bounds and the epoch), so a
// page of 32 tiles with their IDs is 1,672 B, and a first touch copies
// a tile's entries in one allocation.
//
// Allocation. The parallel build knows the tile count and carves all
// tile pages out of one slab; New does the same for the dense
// directory. Pages carved from a slab keep the whole slab reachable for
// as long as any one of them is referenced by a live snapshot.
// Everything that grows incrementally (sequential inserts, Load, the
// tail page of a Live index, first-touch copies) allocates one page at
// a time.
//
// Page sizes are compile-time constants chosen by measurement. A publish
// pays a fixed cost, copying the tile-page references (8 bytes per
// page), and a variable one, a page copy per page the batch touches, so
// small pages cost less per touched tile and large pages less per
// publish. On an index of the benchmark's scale (BenchmarkPublish: 410K
// occupied tiles, 48 B tile headers, medians of four rounds on 2 vCPUs)
// a bulk of 32 moves / a single move publish in 367/123 us with 16-tile
// pages, 335/71 us with 32 and 393/47 us with 64: 32 tiles is the knee,
// the fastest bulk, which is what the write workloads send. Nearly all
// of that time is the allocator and the garbage collector working
// through the copied bytes, which is why bytes copied —
// LiveStats.COWBytes — is the figure to watch. The directory is only
// written when a batch populates a new tile, so its page is sized for a
// short reference slice (1,024 pages per million grid cells) and a
// cheap copy.
const (
	tilePageShift = 5
	tilePageSize  = 1 << tilePageShift // tiles per page (1.6 KB)
	tilePageMask  = tilePageSize - 1

	dirPageShift = 10
	dirPageSize  = 1 << dirPageShift // directory entries per page (4 KB)
	dirPageMask  = dirPageSize - 1
)

// tilePage is one page of the tile table: the headers of tilePageSize
// consecutive slots and, beside them, the grid tile IDs of those slots
// (the reverse directory).
type tilePage struct {
	epoch uint64 // the index epoch that may write this page
	ids   [tilePageSize]int32
	tiles [tilePageSize]tile
}

// dirPage is one page of the tile directory: the slots of dirPageSize
// consecutive grid tile IDs, -1 where the tile is empty.
type dirPage struct {
	epoch uint64 // the index epoch that may write this page
	slots [dirPageSize]int32
}

const (
	tilePageBytes = int64(unsafe.Sizeof(tilePage{}))
	dirPageBytes  = int64(unsafe.Sizeof(dirPage{}))
	entryBytes    = int64(unsafe.Sizeof(spatial.Entry{}))
)

// init marks every entry of the page empty and stamps its owner.
func (p *dirPage) init(epoch uint64) *dirPage {
	p.epoch = epoch
	for i := range p.slots {
		p.slots[i] = -1
	}
	return p
}

// newDenseDir returns a dense directory for n grid tiles, all empty and
// owned by epoch, with its pages carved from one slab.
func newDenseDir(n int, epoch uint64) []*dirPage {
	slab := make([]dirPage, (n+dirPageMask)>>dirPageShift)
	dir := make([]*dirPage, len(slab))
	for i := range slab {
		dir[i] = slab[i].init(epoch)
	}
	return dir
}

// tile returns the tile header stored at slot, for reading.
func (ix *Index) tile(slot int) *tile {
	return &ix.pages[slot>>tilePageShift].tiles[slot&tilePageMask]
}

// tileID returns the grid tile ID of the tile stored at slot.
func (ix *Index) tileID(slot int) int32 {
	return ix.pages[slot>>tilePageShift].ids[slot&tilePageMask]
}

// slotOf returns the tile-table slot of grid tile id, or -1 when the
// tile is empty.
func (ix *Index) slotOf(id int32) int32 {
	if ix.dense != nil {
		return ix.dense[id>>dirPageShift].slots[id&dirPageMask]
	}
	if p := ix.sparse[id>>dirPageShift]; p != nil {
		return p.slots[id&dirPageMask]
	}
	return -1
}

// ownTilePage returns tile page pi for writing, copying it first when
// it is shared with an older snapshot.
func (ix *Index) ownTilePage(pi int) *tilePage {
	p := ix.pages[pi]
	if p.epoch != ix.epoch {
		cp := *p
		cp.epoch = ix.epoch
		p = &cp
		ix.pages[pi] = p
		ix.met.cowBytes.Add(tilePageBytes)
	}
	return p
}

// ownTile returns the tile at slot for writing its run: the page is
// owned first, then the run is cloned if it is still shared with an
// older snapshot, in one allocation with room for the entries the
// caller is about to add: 1 for an insert, 0 for a delete, whose spare
// slot would go unused and only spread the snapshot's runs over more
// memory for every later read. On a directly built index (epoch 0
// everywhere) both checks are a single predictable branch.
func (ix *Index) ownTile(slot int32, room int) *tile {
	t := &ix.ownTilePage(int(slot >> tilePageShift)).tiles[slot&tilePageMask]
	if t.epoch == ix.epoch {
		return t
	}
	if n := len(t.run); n > 0 {
		run := make([]spatial.Entry, n, n+room)
		copy(run, t.run)
		t.run = run
		ix.met.cowBytes.Add(int64(n) * entryBytes)
	} else {
		t.run = nil // drop any backing shared with older epochs
	}
	t.epoch = ix.epoch
	return t
}

// appendTile adds an empty tile for grid tile id at the end of the tile
// table and returns its slot. The tail page is owned like any other
// page before the write, so an older snapshot sharing it is untouched
// (its own tile count stops short of the new slot either way). The
// directory is not updated; see slotFor and Load.
func (ix *Index) appendTile(id int32) int32 {
	slot := ix.numTiles
	pi := slot >> tilePageShift
	if pi == len(ix.pages) {
		ix.pages = append(ix.pages, &tilePage{epoch: ix.epoch})
	}
	p := ix.ownTilePage(pi)
	p.ids[slot&tilePageMask] = id
	p.tiles[slot&tilePageMask] = tile{epoch: ix.epoch}
	ix.numTiles++
	return int32(slot)
}

// setSlot records slot as the location of grid tile id, taking
// ownership of the directory page first.
func (ix *Index) setSlot(id, slot int32) {
	if ix.sharedDir {
		ix.unshareDir()
	}
	k := id >> dirPageShift
	var p *dirPage
	if ix.dense != nil {
		p = ix.dense[k]
	} else {
		p = ix.sparse[k]
	}
	if p == nil { // sparse directory, first tile of this page
		p = new(dirPage).init(ix.epoch)
	} else if p.epoch != ix.epoch {
		cp := *p
		cp.epoch = ix.epoch
		p = &cp
		ix.met.cowBytes.Add(dirPageBytes)
	}
	p.slots[id&dirPageMask] = slot
	if ix.dense != nil {
		ix.dense[k] = p
	} else {
		ix.sparse[k] = p
	}
}

// unshareDir gives a cloned index private directory page references
// before its first tile allocation: the reference slice of the dense
// directory, or the page map of the sparse one, is copied — 8 bytes per
// directory page, never the pages themselves (setSlot copies the one
// page it writes). Existing-tile lookups never get here.
func (ix *Index) unshareDir() {
	if ix.dense != nil {
		ix.dense = append([]*dirPage(nil), ix.dense...)
	} else {
		m := make(map[int32]*dirPage, len(ix.sparse)+1)
		for k, p := range ix.sparse {
			m[k] = p
		}
		ix.sparse = m
	}
	ix.sharedDir = false
}
