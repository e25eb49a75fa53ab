package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Index persistence: a compact binary snapshot of the built structure, so
// a static index or a checkpoint is read back without re-partitioning
// the data. The format stores the grid geometry and the per-tile class
// partitions; decomposed tables are derived data, and the flag bit
// records whether the saved index held them (Decomposed), so Load
// rebuilds them only then. Exact geometries are not part of the snapshot
// (persist them separately, e.g. as WKT via package dataio) — a loaded
// index supports all MBR (filtering) queries.
//
// Load decodes the entries straight out of the reader's buffer and
// allocates in slabs, not per tile: every tile's run is an exact-size
// piece of a shared entry chunk, and tile pages are carved from page
// slabs (appendTilePages). Chunks and slabs grow with the bytes already
// decoded, so a corrupt header cannot make Load allocate far ahead of
// its input. On the 1M-object ROADS-like snapshot (45 MB, 410K tiles)
// that is about 300 allocations where one per tile made 433K; much of
// what is left of the time is the first touch of the ≈ 80 MB the index
// occupies.
//
// Layout (little endian):
//
//	magic "TL2I" | version u32
//	nx u32 | ny u32 | space 4xf64 | flags u32 | size u64
//	[v2+] epoch u64
//	tileCount u64
//	per tile: tileID u32 | 4x class length u32 | entries (id u32, 4xf64)
//
// Version history: v1 has no epoch field (loaded indices start at epoch
// 0); v2 carries the copy-on-write epoch of the snapshot so a checkpoint
// of a Live index records its exact log position (see internal/wal).
// WriteTo always emits the current version; Load accepts both.

const (
	persistMagic   = "TL2I"
	persistVersion = 2

	flagDecompose = 1 << 0
)

// WriteTo serializes the index structure. It returns the number of bytes
// written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return ix.writeVersion(w, persistVersion)
}

// Fixed record widths of the layout above.
const (
	persistHeaderMax = 4 + 4 + 4 + 4*8 + 4 + 8 + 8 + 8 // version .. tileCount, v2
	persistTile      = 4 + 4*4                         // tile ID, class lengths
	persistEntry     = 4 + 4*8                         // id, MBR
)

// writeVersion emits the snapshot in the given format version. Only the
// current version is written in production; older versions remain
// writable so the cross-version tests exercise real v1 bytes. Records
// are encoded by hand into one reused buffer, a tile at a time (the
// reflective encoding/binary path allocates per field, five times per
// entry); persist_test.go keeps that reflective encoder as the reference
// the bytes are compared against.
func (ix *Index) writeVersion(w io.Writer, version uint32) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	le := binary.LittleEndian

	buf := make([]byte, 0, 4096)
	buf = append(buf, persistMagic...)
	buf = le.AppendUint32(buf, version)
	buf = le.AppendUint32(buf, uint32(ix.g.NX))
	buf = le.AppendUint32(buf, uint32(ix.g.NY))
	buf = appendRect(buf, ix.opts.Space)
	buf = le.AppendUint32(buf, ix.flags())
	buf = le.AppendUint64(buf, uint64(ix.size))
	if version >= 2 {
		buf = le.AppendUint64(buf, ix.epoch)
	}
	buf = le.AppendUint64(buf, uint64(ix.numTiles))
	if _, err := cw.Write(buf); err != nil {
		return cw.n, err
	}
	for slot := 0; slot < ix.numTiles; slot++ {
		t := ix.tile(slot)
		buf = le.AppendUint32(buf[:0], uint32(ix.tileID(slot)))
		for c := ClassA; c <= ClassD; c++ {
			buf = le.AppendUint32(buf, uint32(len(t.class(c))))
		}
		for i := range t.run { // the classes in order, side by side
			e := &t.run[i]
			buf = le.AppendUint32(buf, e.ID)
			buf = appendRect(buf, e.Rect)
		}
		if _, err := cw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

func appendRect(buf []byte, r geom.Rect) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, math.Float64bits(r.MinX))
	buf = le.AppendUint64(buf, math.Float64bits(r.MinY))
	buf = le.AppendUint64(buf, math.Float64bits(r.MaxX))
	return le.AppendUint64(buf, math.Float64bits(r.MaxY))
}

// decodeRect reads the four little-endian float64s appendRect wrote.
func decodeRect(b []byte) geom.Rect {
	le := binary.LittleEndian
	return geom.Rect{
		MinX: math.Float64frombits(le.Uint64(b)),
		MinY: math.Float64frombits(le.Uint64(b[8:])),
		MaxX: math.Float64frombits(le.Uint64(b[16:])),
		MaxY: math.Float64frombits(le.Uint64(b[24:])),
	}
}

func (ix *Index) flags() uint32 {
	var f uint32
	if ix.Decomposed() {
		f |= flagDecompose
	}
	return f
}

// countWriter tracks bytes written.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads an index snapshot written by WriteTo. Given a
// *bufio.Reader (of at least 4 KB), it consumes exactly the snapshot's
// bytes, so snapshots written back to back are read one after the other;
// any other reader is wrapped in a 4 KB one.
func Load(r io.Reader) (*Index, error) {
	sr := snapReader{br: bufio.NewReader(r)}
	le := binary.LittleEndian

	b, err := sr.next(4)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(b) != persistMagic {
		return nil, fmt.Errorf("core: not an index snapshot (magic %q)", b)
	}
	if b, err = sr.next(4); err != nil {
		return nil, err
	}
	version := le.Uint32(b)
	if version < 1 || version > persistVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}

	hdrLen := persistHeaderMax - 4
	if version < 2 {
		hdrLen -= 8 // no epoch field
	}
	if b, err = sr.next(hdrLen); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	nx, ny := le.Uint32(b), le.Uint32(b[4:])
	space := decodeRect(b[8:])
	flags, size := le.Uint32(b[40:]), le.Uint64(b[44:])
	var epoch uint64
	if version >= 2 {
		epoch = le.Uint64(b[52:])
	}
	tileCount := le.Uint64(b[hdrLen-8:])
	if nx == 0 || ny == 0 || nx > 1<<20 || ny > 1<<20 {
		return nil, fmt.Errorf("core: implausible grid %dx%d in snapshot", nx, ny)
	}
	if !space.Valid() || space.Width() <= 0 || space.Height() <= 0 {
		return nil, fmt.Errorf("core: invalid space %v in snapshot", space)
	}
	if tileCount > uint64(nx)*uint64(ny) {
		return nil, fmt.Errorf("core: %d tiles for a %dx%d grid", tileCount, nx, ny)
	}

	// Decode without a directory: a dense one is O(nx*ny) to allocate,
	// which a corrupt header could demand before a single tile byte has
	// been validated. The tile table records each slot's tile ID, and the
	// directory is derived from it below once the whole snapshot decoded.
	// Claimed counts are likewise untrusted until the bytes backing them
	// have been read: a new entry chunk or page slab is at most as large
	// as what was decoded before it (or its minimum size), and a run too
	// large for the next chunk grows a buffer's worth of entries at a
	// time, after those entries were read, so a corrupt header cannot
	// demand gigabytes before the decoder hits EOF.
	ix := newIndex(Options{NX: int(nx), NY: int(ny), Space: space,
		Decompose: flags&flagDecompose != 0}, true)
	ix.size = int(size)
	ix.epoch = epoch
	ext := noExtent
	var chunk []spatial.Entry // the unused tail of the current entry chunk
	decoded := 0              // entries decoded so far
	maxRead := sr.br.Size() / persistEntry
	sr.rest = int64(tileCount) * persistTile // every tile has a header

	maxTileID := uint32(nx) * uint32(ny)
	for slot := uint64(0); slot < tileCount; slot++ {
		if b, err = sr.next(persistTile); err != nil {
			return nil, fmt.Errorf("core: reading tile %d: %w", slot, err)
		}
		tileID := le.Uint32(b)
		if tileID >= maxTileID {
			return nil, fmt.Errorf("core: tile ID %d out of range", tileID)
		}
		var ends [4]int32
		total := uint64(0)
		for c := range ends {
			total += uint64(le.Uint32(b[4+4*c:]))
			ends[c] = int32(total) // checked below
		}
		if total > size*4+4 || total > math.MaxInt32 {
			return nil, fmt.Errorf("core: tile %d claims %d entries for %d objects", slot, total, size)
		}
		n := int(total)
		sr.rest += int64(n) * persistEntry

		if ix.numTiles == len(ix.pages)<<tilePageShift {
			left := (tileCount - slot + tilePageMask) >> tilePageShift
			ix.pages = appendTilePages(ix.pages, int(min(left, uint64(len(ix.pages)+1), loadSlabPages)), epoch)
		}
		t := ix.tile(int(ix.appendTile(int32(tileID))))
		t.end = ends

		// The run: an exact-size piece of the entry chunk (cap = len, so
		// a later insert reallocates instead of writing into its
		// neighbour), or, past the size of the next chunk, a slice of its
		// own that grows as its bytes arrive.
		var run []spatial.Entry
		if next := min(max(decoded, loadChunkMin), loadChunkMax); n > 0 && (n <= len(chunk) || n <= next) {
			if n > len(chunk) {
				chunk = make([]spatial.Entry, next)
			}
			run, chunk = chunk[:0:n], chunk[n:]
		}
		for len(run) < n {
			k := min(n-len(run), maxRead)
			if b, err = sr.next(k * persistEntry); err != nil {
				return nil, fmt.Errorf("core: reading tile %d entries: %w", slot, err)
			}
			at := len(run)
			run = slices.Grow(run, k)[:at+k]
			dst := run[at:]
			for i := range dst {
				rec := b[:persistEntry:persistEntry]
				b = b[persistEntry:]
				e := &dst[i]
				*e = spatial.Entry{ID: le.Uint32(rec), Rect: decodeRect(rec[4:])}
				if !e.Rect.Valid() || !e.Rect.Finite() {
					return nil, fmt.Errorf("core: corrupt entry rect %v", e.Rect)
				}
				ext = ext.Union(e.Rect)
			}
		}
		t.run = run
		decoded += n
	}
	sr.done()
	ix.extent = ext
	// Use the dense directory under the same size cutoff New applies, with
	// one extra guard: the directory must be within a constant factor of
	// the tile data it indexes. A near-empty snapshot of a huge grid keeps
	// the sparse map — the right call memory-wise, and it keeps the
	// directory allocation proportional to the bytes actually decoded (a
	// corrupt header cannot demand a 128 MB directory for three tiles of
	// data).
	if n := int(nx) * int(ny); n <= denseDirectoryLimit &&
		n <= max(1<<20, 256*ix.numTiles) {
		ix.dense, ix.sparse = newDenseDir(n, ix.epoch), nil
	}
	for slot := 0; slot < ix.numTiles; slot++ {
		id := ix.tileID(slot)
		if ix.slotOf(id) >= 0 {
			return nil, fmt.Errorf("core: tile ID %d appears twice in snapshot", id)
		}
		ix.setSlot(id, int32(slot))
	}
	ix.buildReadTables()
	return ix, nil
}

// Allocation sizes of Load: entry chunks grow from loadChunkMin to
// loadChunkMax entries (655 KB) and page slabs to loadSlabPages pages
// (107 KB).
const (
	loadChunkMin  = 1 << 10
	loadChunkMax  = 1 << 14
	loadSlabPages = 64
)

// snapReader hands out a snapshot's bytes straight from a
// bufio.Reader's buffer: next returns the following n bytes (n at most
// the buffer size), valid until the next call. It peeks ahead as far as
// the snapshot is known to reach (rest), so one peek serves many records
// and none waits for a byte past the snapshot's end, and it consumes
// what it handed out at its next peek and in done.
type snapReader struct {
	br   *bufio.Reader
	buf  []byte // peeked and not handed out yet
	used int    // bytes handed out since the last peek, not yet consumed
	rest int64  // bytes the snapshot is known to hold past those handed out
}

func (r *snapReader) next(n int) ([]byte, error) {
	if len(r.buf) < n {
		r.done()
		b, err := r.br.Peek(int(min(max(r.rest, int64(n)), int64(r.br.Size()))))
		if len(b) < n { // io.ReadFull's errors for a short read
			if len(b) > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		r.buf = b
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	r.used += n
	r.rest -= int64(n)
	return b, nil
}

// done consumes the bytes handed out so far.
func (r *snapReader) done() {
	r.br.Discard(r.used)
	r.used = 0
}
