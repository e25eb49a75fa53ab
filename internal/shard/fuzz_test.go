package shard

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/wal"
)

// corruptManifests are manifests a reopen must refuse rather than clamp
// or default into another layout.
var corruptManifests = map[string]manifest{
	"inverted space":   {Version: 2, Shards: 2, NX: 4, NY: 4, MinX: 1, MaxX: 0, MaxY: 1},
	"zero space":       {Version: 2, Shards: 2, NX: 4, NY: 4},
	"flat space":       {Version: 2, Shards: 2, NX: 4, NY: 4, MaxX: 1},
	"shards over NX":   {Version: 2, Shards: 9, NX: 4, NY: 4, MaxX: 1, MaxY: 1},
	"NX over 2^20":     {Version: 2, Shards: 2, NX: 1<<20 + 1, NY: 4, MaxX: 1, MaxY: 1},
	"NY over 2^20":     {Version: 2, Shards: 2, NX: 4, NY: 1<<20 + 1, MaxX: 1, MaxY: 1},
	"no shards":        {Version: 2, Shards: 0, NX: 4, NY: 4, MaxX: 1, MaxY: 1},
	"future version":   {Version: 3, Shards: 2, NX: 4, NY: 4, MaxX: 1, MaxY: 1},
	"unversioned (v0)": {Shards: 2, NX: 4, NY: 4, MaxX: 1, MaxY: 1},
}

// TestOpenRefusesCorruptManifest: a corrupt shards.json makes Open
// return an error naming the manifest; it never panics, and never
// serves a layout other than the one the manifest claims.
func TestOpenRefusesCorruptManifest(t *testing.T) {
	for name, m := range corruptManifests {
		dir := t.TempDir()
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		d, _, err := Open(wal.Options{Dir: dir, Logger: quietLog}, nil)
		if err == nil {
			d.Close()
			t.Errorf("%s: Open succeeded", name)
		} else if !strings.Contains(err.Error(), manifestName) {
			t.Errorf("%s: error %q does not name %s", name, err, manifestName)
		}
	}
}

// FuzzManifest: whatever bytes shards.json holds, readManifest's parse
// either refuses them or returns a manifest whose layout has exactly the
// shards it claims. Nothing panics. It fuzzes the parse in memory: a
// file written per input stalls the fuzzer, and
// TestOpenRefusesCorruptManifest covers the read.
func FuzzManifest(f *testing.F) {
	for _, m := range []manifest{
		{Version: 2, Shards: 2, NX: 4, NY: 4, MaxX: 1, MaxY: 1},
		{Version: 1, Shards: 3, NX: 12, NY: 10, MinX: -2, MinY: -1, MaxX: 3, MaxY: 4},
	} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, m := range corruptManifests {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2,"shards":2,"nx":4,"ny":4,"max_x":1e309,"max_y":1}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil || m.Shards > 1<<12 {
			return // more shards only make makeLayout's loops longer, and the fuzzer slow
		}
		if got := m.layout(core.Options{}).shardCount(); got != m.Shards {
			t.Fatalf("manifest %+v: layout has %d shards", m, got)
		}
	})
}

// FuzzEngineCheckpoint: whatever bytes a sharded checkpoint holds,
// layout.load either refuses them or returns an engine whose every
// shard has the layout's grid. The layouts are tiny (4x4 tiles), so no
// input makes the fuzzer allocate a large grid for them.
func FuzzEngineCheckpoint(f *testing.F) {
	opts := core.Options{NX: 4, NY: 4, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	for _, S := range []int{2, 3} {
		var buf bytes.Buffer
		if err := saveEngine(&buf, Build(testDataset(int64(S), 6, 0.4), opts, S)); err != nil {
			f.Fatal(err)
		}
		if _, err := makeLayout(opts, S).load(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("S=%d: the seed does not load: %v", S, err)
		}
		f.Add(uint8(S), buf.Bytes())
	}
	f.Add(uint8(2), []byte(engineMagic))

	f.Fuzz(func(t *testing.T, shards uint8, data []byte) {
		lay := makeLayout(opts, 2+int(shards%2))
		e, err := lay.load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if e.Shards() != lay.shardCount() {
			t.Fatalf("loaded %d shards for a %d-shard layout", e.Shards(), lay.shardCount())
		}
		for s := range e.shards {
			if g := e.shards[s].Grid(); g.NX != lay.starts[s+1]-lay.starts[s] || g.NY != lay.opts.NY {
				t.Fatalf("shard %d: grid %dx%d, the layout's %dx%d", s, g.NX, g.NY, lay.starts[s+1]-lay.starts[s], lay.opts.NY)
			}
		}
	})
}
