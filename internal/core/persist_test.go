package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestPersistRoundTrip: a loaded snapshot answers every query identically
// to the original, for plain, decomposed and sparse-directory indices.
func TestPersistRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(181))
	for _, tc := range []struct {
		opts   Options
		sparse bool
	}{
		{Options{NX: 16, NY: 16}, false},
		{Options{NX: 16, NY: 16, Decompose: true}, false},
		{Options{NX: 16, NY: 16}, true},
		{Options{NX: 1, NY: 1}, false},
	} {
		orig := withDirectory(tc.sparse, func() *Index {
			ix, _ := buildRandom(rnd, 800, 0.1, tc.opts)
			return ix
		})
		var buf bytes.Buffer
		n, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != orig.Len() {
			t.Fatalf("Len %d != %d", loaded.Len(), orig.Len())
		}
		if loaded.Decomposed() != orig.Decomposed() {
			t.Fatal("decompose flag lost")
		}
		for q := 0; q < 60; q++ {
			w := randWindow(rnd, 0.3)
			sameIDs(t, windowIDs(loaded, w), windowIDs(orig, w), "loaded window")
		}
		// The loaded index stays updatable.
		loaded.Insert(spatial.Entry{Rect: randRects(rnd, 1, 0.05)[0], ID: 9999})
		if loaded.Len() != orig.Len()+1 {
			t.Fatal("insert after load failed")
		}
	}
}

// TestPersistEpochRoundTrip: the v2 header carries the copy-on-write
// epoch, so a checkpoint of a Live snapshot remembers its log position.
func TestPersistEpochRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(183))
	orig, _ := buildRandom(rnd, 200, 0.1, Options{NX: 8, NY: 8})
	orig.SetEpoch(41)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 41 {
		t.Fatalf("epoch = %d, want 41", loaded.Epoch())
	}
}

// TestPersistV1Readable: bytes written in the v1 layout (no epoch field)
// still load, with the epoch defaulting to zero.
func TestPersistV1Readable(t *testing.T) {
	rnd := rand.New(rand.NewSource(184))
	orig, _ := buildRandom(rnd, 300, 0.1, Options{NX: 8, NY: 8, Decompose: true})
	orig.SetEpoch(7) // must NOT survive a v1 round trip

	var v1 bytes.Buffer
	if _, err := orig.writeVersion(&v1, 1); err != nil {
		t.Fatal(err)
	}
	v1len := v1.Len()
	loaded, err := Load(&v1)
	if err != nil {
		t.Fatalf("loading v1 snapshot: %v", err)
	}
	if loaded.Epoch() != 0 {
		t.Fatalf("v1 load epoch = %d, want 0", loaded.Epoch())
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("Len %d != %d", loaded.Len(), orig.Len())
	}
	if loaded.Decomposed() != orig.Decomposed() {
		t.Fatal("decompose flag lost across v1")
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, windowIDs(loaded, w), windowIDs(orig, w), "v1 window")
	}

	// A v2 snapshot of the same index must differ only by the 8-byte
	// epoch field.
	var v2 bytes.Buffer
	if _, err := orig.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() != v1len+8 {
		t.Fatalf("v2 size %d, v1 size %d: want exactly 8 bytes more", v2.Len(), v1len)
	}
}

// TestPersistEmptyIndex round-trips an index with no objects.
func TestPersistEmptyIndex(t *testing.T) {
	orig := New(Options{NX: 8, NY: 8})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("Len = %d", loaded.Len())
	}
}

// TestLoadRejectsCorruption: truncations and corrupt headers error out
// rather than producing a broken index or panicking.
func TestLoadRejectsCorruption(t *testing.T) {
	rnd := rand.New(rand.NewSource(182))
	orig, _ := buildRandom(rnd, 100, 0.1, Options{NX: 8, NY: 8})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), 0xFF, 0xFF, 0xFF, 0xFF),
		"truncated":   good[:len(good)/2],
		"header only": good[:16],
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// Corrupt the grid dimensions in place.
	bad := append([]byte{}, good...)
	bad[8], bad[9], bad[10], bad[11] = 0, 0, 0, 0 // nx = 0
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("nx=0: expected error")
	}
}

// referenceEncode is the snapshot writer as it was before the hand-rolled
// codec: every field goes through the reflective binary.Write. It stays
// here as the definition of the on-disk format — format versions 1 and 2
// must keep these exact bytes.
func referenceEncode(ix *Index, version uint32) []byte {
	var buf bytes.Buffer
	write := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			panic(err) // a bytes.Buffer does not fail; only an unsupported type can
		}
	}
	buf.WriteString(persistMagic)
	write(version)
	sp := ix.opts.Space
	hdr := []any{
		uint32(ix.g.NX), uint32(ix.g.NY),
		sp.MinX, sp.MinY, sp.MaxX, sp.MaxY,
		ix.flags(), uint64(ix.size),
	}
	if version >= 2 {
		hdr = append(hdr, ix.epoch)
	}
	hdr = append(hdr, uint64(ix.numTiles))
	for _, v := range hdr {
		write(v)
	}
	for slot := 0; slot < ix.numTiles; slot++ {
		t := ix.tile(slot)
		write(uint32(ix.tileID(slot)))
		for c := ClassA; c <= ClassD; c++ {
			write(uint32(len(t.class(c))))
		}
		for c := ClassA; c <= ClassD; c++ {
			for i := range t.class(c) {
				e := &t.class(c)[i]
				for _, v := range []any{e.ID, e.Rect.MinX, e.Rect.MinY, e.Rect.MaxX, e.Rect.MaxY} {
					write(v)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestPersistMatchesReferenceEncoder: the hand-rolled codec writes the
// reference encoder's bytes, in both format versions, for plain,
// decomposed, sparse and parallel-built indices and for a mutated
// copy-on-write descendant with appended, emptied and rewritten tiles.
func TestPersistMatchesReferenceEncoder(t *testing.T) {
	lowerBuildGates(t)
	rnd := rand.New(rand.NewSource(185))
	indices := map[string]*Index{}
	for name, opts := range map[string]Options{
		"plain":      {NX: 16, NY: 16, BuildThreads: 1},
		"decomposed": {NX: 16, NY: 16, Decompose: true, BuildThreads: 1},
		"sparse":     {NX: 40, NY: 40, BuildThreads: 1},
		"parallel":   {NX: 16, NY: 16, BuildThreads: 3},
		"one tile":   {NX: 1, NY: 1},
	} {
		indices[name] = withDirectory(name == "sparse", func() *Index {
			ix, _ := buildRandom(rnd, 600, 0.1, opts)
			return ix
		})
	}
	indices["empty"] = New(Options{NX: 8, NY: 8})

	mutated := indices["plain"].CloneCOW()
	d := indices["plain"].Dataset()
	for i := 0; i < 200; i++ {
		e := d.Entries[i]
		if !mutated.Delete(e.ID, e.Rect) {
			t.Fatalf("delete of %d failed", e.ID)
		}
		if i%2 == 0 {
			e.Rect = randRects(rnd, 1, 0.05)[0]
			mutated.Insert(e)
		}
	}
	mutated = mutated.CloneCOW()
	mutated.Insert(spatial.Entry{ID: 5000, Rect: geom.Rect{MinX: -3, MinY: -3, MaxX: 4, MaxY: 4}})
	indices["post-mutation"] = mutated

	for name, ix := range indices {
		for version := uint32(1); version <= persistVersion; version++ {
			var got bytes.Buffer
			n, err := ix.writeVersion(&got, version)
			if err != nil {
				t.Fatalf("%s v%d: %v", name, version, err)
			}
			want := referenceEncode(ix, version)
			if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s v%d: codec wrote %d bytes that differ from the reference encoder's %d",
					name, version, got.Len(), len(want))
			}
			if _, err := Load(bytes.NewReader(want)); err != nil {
				t.Errorf("%s v%d: Load of the reference bytes: %v", name, version, err)
			}
		}
	}
}

// TestPersistFlagFollowsTables: a snapshot's 2-layer+ flag records
// whether the index holds the tables, not the option it was built with.
// A Live index over a decomposed seed drops them with its first write,
// so a checkpoint of a later snapshot must load plain; a static
// decomposed index still round-trips with its tables.
func TestPersistFlagFollowsTables(t *testing.T) {
	rnd := rand.New(rand.NewSource(186))
	seed, _ := buildRandom(rnd, 400, 0.1, Options{NX: 16, NY: 16, Decompose: true})
	l := NewLive(seed, LiveOptions{})
	defer l.Close()
	if _, err := l.Insert(spatial.Entry{ID: 10_000, Rect: geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.41, MaxY: 0.41}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *Index
		want bool
	}{
		{"static decomposed", seed, true},
		{"live snapshot after a write", l.Snapshot(), false},
	} {
		var buf bytes.Buffer
		if _, err := tc.ix.WriteTo(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if loaded.Decomposed() != tc.want {
			t.Errorf("%s: loaded Decomposed() = %v, want %v", tc.name, loaded.Decomposed(), tc.want)
		}
	}
}
