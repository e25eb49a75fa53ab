package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Index persistence: a compact binary snapshot of the built structure so
// a static index can be memory-mapped-in-spirit (read back) without
// re-partitioning the data. The format stores the grid geometry and the
// per-tile class partitions; decomposed tables are derived data, and the
// flag bit records whether the saved index held them (Decomposed), so
// Load rebuilds them only then. Exact geometries are not part of the
// snapshot (persist them separately, e.g. as WKT via package dataio) — a
// loaded index supports all MBR (filtering) queries.
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
		for c := 0; c < 4; c++ {
			buf = le.AppendUint32(buf, uint32(len(t.classes[c])))
		}
		for c := 0; c < 4; c++ {
			for i := range t.classes[c] {
				e := &t.classes[c][i]
				buf = le.AppendUint32(buf, e.ID)
				buf = appendRect(buf, e.Rect)
			}
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

// Load reads an index snapshot written by WriteTo.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	// Every fixed-width record is read into this one scratch buffer.
	var scratch [persistHeaderMax]byte
	read := func(n int) ([]byte, error) {
		_, err := io.ReadFull(br, scratch[:n])
		return scratch[:n], err
	}

	magic, err := read(4)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("core: not an index snapshot (magic %q)", magic)
	}
	b, err := read(4)
	if err != nil {
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
	if b, err = read(hdrLen); err != nil {
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
	// have actually been read: tile pages are allocated one at a time as
	// tiles arrive and entry preallocations are capped, so a corrupt
	// header cannot demand gigabytes before the decoder hits EOF.
	ix := New(Options{NX: int(nx), NY: int(ny), Space: space,
		Decompose: flags&flagDecompose != 0, SparseDirectory: true})
	ix.opts.SparseDirectory = false // restore the default directory policy
	ix.size = int(size)
	ix.epoch = epoch
	const preallocCap = 1 << 10

	maxTileID := uint32(nx) * uint32(ny)
	for slot := uint64(0); slot < tileCount; slot++ {
		if b, err = read(4); err != nil {
			return nil, fmt.Errorf("core: reading tile %d: %w", slot, err)
		}
		tileID := le.Uint32(b)
		if tileID >= maxTileID {
			return nil, fmt.Errorf("core: tile ID %d out of range", tileID)
		}
		t := ix.tile(int(ix.appendTile(int32(tileID))))
		if b, err = read(4 * 4); err != nil { // four class lengths
			return nil, err
		}
		var lens [4]uint32
		total := uint64(0)
		for c := 0; c < 4; c++ {
			lens[c] = le.Uint32(b[4*c:])
			total += uint64(lens[c])
		}
		if total > size*4+4 {
			return nil, fmt.Errorf("core: tile %d claims %d entries for %d objects", slot, total, size)
		}
		for c := 0; c < 4; c++ {
			if lens[c] == 0 {
				continue
			}
			entries := make([]spatial.Entry, 0, min(uint64(lens[c]), preallocCap))
			for i := uint64(0); i < uint64(lens[c]); i++ {
				if b, err = read(persistEntry); err != nil {
					return nil, fmt.Errorf("core: reading tile %d entries: %w", slot, err)
				}
				e := spatial.Entry{ID: le.Uint32(b), Rect: decodeRect(b[4:])}
				if !e.Rect.Valid() || !e.Rect.Finite() {
					return nil, fmt.Errorf("core: corrupt entry rect %v", e.Rect)
				}
				entries = append(entries, e)
			}
			t.classes[c] = entries
		}
	}
	// Use the dense directory under the same size cutoff New applies, with
	// one extra guard: the directory must be within a constant factor of
	// the tile data it indexes. A near-empty snapshot of a huge grid keeps
	// the sparse map — the right call memory-wise, and it keeps the
	// directory allocation proportional to the bytes actually decoded (a
	// corrupt header cannot demand a 128 MB directory for three tiles of
	// data).
	if n := int(nx) * int(ny); n <= ix.opts.DenseDirectoryLimit &&
		n <= max(1<<20, 256*ix.numTiles) {
		ix.dense, ix.sparse = newDenseDir(n, ix.epoch), nil
	}
	for slot := 0; slot < ix.numTiles; slot++ {
		ix.setSlot(ix.tileID(slot), int32(slot))
	}
	ix.buildReadTables()
	return ix, nil
}
