package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/wal"
)

// Durability layouts. The directory, not the caller, decides which one
// a reopen uses (see Open). Either way the engine has one write-ahead
// log, whose frames are whole batches at the engine epoch:
//
//	dir/                  one shard (the flat layout)
//	  wal-*, checkpoint-* — log segments, and checkpoints of the index
//
//	dir/                  S > 1 shards
//	  shards.json         — the layout manifest (version 2)
//	  wal-*, checkpoint-* — log segments, and checkpoints that hold every
//	                        shard of one snapshot (engineMagic)
//
// The manifest pins the shard geometry (count, grid dimensions, space);
// it is written before any log or checkpoint, so a directory with
// sharded state always has one. A flat directory needs none: its one
// shard's grid is its checkpoint's.
//
// Version 1 of the manifest kept one log directory per shard
// (shard-000/ ...), each at its own epochs. Open migrates such a
// directory before it returns (see migrate).

// manifestName is the layout manifest file inside the durability dir.
const manifestName = "shards.json"

// manifestVersion is the version Open writes: one log and one
// checkpoint file per engine, at the top level.
const manifestVersion = 2

type manifest struct {
	Version int     `json:"version"`
	Shards  int     `json:"shards"`
	NX      int     `json:"nx"`
	NY      int     `json:"ny"`
	MinX    float64 `json:"min_x"`
	MinY    float64 `json:"min_y"`
	MaxX    float64 `json:"max_x"`
	MaxY    float64 `json:"max_y"`
}

// layout is the shard geometry the manifest pins; opts supplies the
// rest of the index options.
func (m manifest) layout(opts core.Options) layout {
	return makeLayout(core.Options{
		NX: m.NX, NY: m.NY,
		Space:        m.space(),
		Decompose:    opts.Decompose,
		BuildThreads: opts.BuildThreads,
	}, m.Shards)
}

func (m manifest) space() geom.Rect {
	return geom.Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY}
}

// hasManifest reports whether dir holds sharded durability state (a
// layout manifest; the manifest is written before any log, so it is the
// reliable signal).
func hasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// shardDir is shard s's log directory in the version-1 layout.
func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(data)
}

// parseManifest decodes and checks a manifest's bytes.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("shard: parsing %s: %w", manifestName, err)
	}
	// The bounds of core.Load's snapshot header, and a shard owns at
	// least one column: anything else is corruption, never a layout to
	// clamp or default into a different one.
	if m.Shards < 1 || m.Shards > m.NX || m.NX > 1<<20 || m.NY < 1 || m.NY > 1<<20 {
		return manifest{}, fmt.Errorf("shard: manifest %s has invalid layout (%d shards, %dx%d grid)",
			manifestName, m.Shards, m.NX, m.NY)
	}
	if sp := m.space(); !sp.Valid() || !sp.Finite() || sp.Width() <= 0 || sp.Height() <= 0 {
		return manifest{}, fmt.Errorf("shard: manifest %s has invalid space %v", manifestName, sp)
	}
	if m.Version < 1 || m.Version > manifestVersion {
		return manifest{}, fmt.Errorf("shard: manifest %s has unsupported version %d", manifestName, m.Version)
	}
	return m, nil
}

// writeManifest persists the layout with the tmp+fsync+rename idiom and
// fsyncs the directory, so a crash never leaves a truncated manifest
// and a written one survives power loss.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, manifestName))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

// engineMagic opens a checkpoint of S > 1 shards: magic, then version
// u32 | shards u32 | distinct size u64, then every shard in the core
// persist format, in shard order (little endian). A one-shard
// checkpoint is its index alone, the flat layout's format.
const (
	engineMagic   = "TLSE"
	engineVersion = 1
)

// codec stores the engine over lay in checkpoint files; opts shapes the
// empty engine of a flat cold start.
func (lay layout) codec(opts core.Options) wal.Codec[Engine, *Engine] {
	if lay.shardCount() == 1 {
		return wal.Codec[Engine, *Engine]{
			Load: func(r io.Reader) (*Engine, error) {
				ix, err := core.Load(r)
				if err != nil {
					return nil, err
				}
				return One(ix), nil
			},
			Save:  func(w io.Writer, e *Engine) error { _, err := e.shards[0].WriteTo(w); return err },
			Empty: func() *Engine { return One(core.New(opts)) },
		}
	}
	return wal.Codec[Engine, *Engine]{Load: lay.load, Save: saveEngine, Empty: lay.empty}
}

// empty is the engine over lay with no objects.
func (lay layout) empty() *Engine {
	e := &Engine{lay: lay, shards: make([]*core.Index, lay.shardCount()), met: newMetrics(lay.shardCount())}
	for s := range e.shards {
		e.shards[s] = core.New(lay.shardOpts(s))
	}
	return e
}

func saveEngine(w io.Writer, e *Engine) error {
	hdr := binary.LittleEndian.AppendUint32([]byte(engineMagic), engineVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(e.shards)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(e.size))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, six := range e.shards {
		if _, err := six.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// load reads a checkpoint saveEngine wrote for lay.
func (lay layout) load(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r) // r itself when it is one: the shards follow each other
	var hdr [len(engineMagic) + 4 + 4 + 8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("shard: reading checkpoint header: %w", err)
	}
	le := binary.LittleEndian
	if string(hdr[:4]) != engineMagic || le.Uint32(hdr[4:]) != engineVersion {
		return nil, fmt.Errorf("shard: not a version-%d sharded checkpoint (magic %q)", engineVersion, hdr[:4])
	}
	S := lay.shardCount()
	if n := int(le.Uint32(hdr[8:])); n != S {
		return nil, fmt.Errorf("shard: checkpoint holds %d shards, the manifest %d", n, S)
	}
	e := &Engine{lay: lay, shards: make([]*core.Index, S), size: int(le.Uint64(hdr[12:])), met: newMetrics(S)}
	for s := range e.shards {
		six, err := core.Load(br)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if g := six.Grid(); g.NX != lay.starts[s+1]-lay.starts[s] || g.NY != lay.opts.NY {
			return nil, fmt.Errorf("shard %d: checkpoint grid %dx%d does not match the manifest", s, g.NX, g.NY)
		}
		e.shards[s] = six
	}
	return e, nil
}

// Durable is the sharded engine's apply loop with its one write-ahead
// log.
type Durable = wal.Durable[Engine, *Engine]

// Open recovers (or cold-starts) the durable engine in wo.Dir. wo's
// sync policy, rotation, checkpoint cadence and wo.Live apply to the
// engine's one log and loop, and wo.Index shapes an empty directory.
// The directory decides the layout:
//
//   - a layout manifest: the manifest's shards, grid and space;
//   - log state with no manifest: one shard, on the grid of its
//     recovered checkpoint;
//   - neither (a cold start): seed's layout, or one shard over wo.Index
//     (which must then carry a Space) when seed is nil. One shard
//     writes the flat layout; more write the manifest first, then the
//     log and a checkpoint of seed.
//
// Recovery loads the newest readable checkpoint and replays the log
// tail, routing every frame by MBR as Apply does. A version-1 directory
// is migrated first. Refused, with nothing changed: shard directories
// with no manifest, and a version-1 manifest beside top-level log
// segments — either half may hold acknowledged writes the other lacks.
// With prior state, seed is ignored with a notice. Open takes ownership
// of seed.
func Open(wo wal.Options, seed *Engine) (*Durable, wal.RecoveryInfo, error) {
	dir, opts := wo.Dir, wo.Index
	if wo.Logger == nil {
		wo.Logger = slog.Default()
	}
	logger := wo.Logger
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, wal.RecoveryInfo{}, fmt.Errorf("shard: creating durability dir: %w", err)
	}
	ckpts, segs, err := wal.Files(dir)
	if err != nil {
		return nil, wal.RecoveryInfo{}, err
	}
	legacy, err := filepath.Glob(filepath.Join(dir, "shard-[0-9][0-9][0-9]"))
	if err != nil {
		return nil, wal.RecoveryInfo{}, err
	}
	manifested := hasManifest(dir)
	var m manifest
	if manifested {
		if m, err = readManifest(dir); err != nil {
			return nil, wal.RecoveryInfo{}, err
		}
	}

	switch {
	case !manifested && len(legacy) > 0:
		return nil, wal.RecoveryInfo{}, fmt.Errorf(
			"shard: %s holds shard log directories (%s) but no layout manifest (%s); "+
				"refusing to start from the seed, since they may hold acknowledged writes",
			dir, filepath.Base(legacy[0]), manifestName)
	case manifested && m.Version == 1 && len(segs) > 0:
		return nil, wal.RecoveryInfo{}, fmt.Errorf(
			"shard: %s holds both a layout manifest (%s) and write-ahead log state at its top level; "+
				"refusing to pick one, since either may hold acknowledged writes the other lacks",
			dir, manifestName)
	case manifested && m.Version == 1:
		if err := migrate(dir, m, opts, ckpts, logger); err != nil {
			return nil, wal.RecoveryInfo{}, fmt.Errorf("shard: migrating %s to one log: %w", dir, err)
		}
		m.Version = manifestVersion
	case manifested && len(legacy) > 0:
		// A migration committed its manifest and stopped before removing
		// the shard directories: they are superseded.
		if err := removeDirs(dir, legacy); err != nil {
			return nil, wal.RecoveryInfo{}, err
		}
	}
	state := len(ckpts)+len(segs) > 0

	var lay layout
	switch {
	case manifested:
		lay = m.layout(opts)
	case seed != nil && !state:
		lay = seed.lay
	case opts.Space == (geom.Rect{}) && !state:
		return nil, wal.RecoveryInfo{}, errors.New("shard: an empty durability dir needs Options.Space or a seed")
	default:
		// One shard, on the grid of its checkpoint once recovered.
		lay = makeLayout(opts, 1)
	}
	seedShards := 0
	if seed != nil && (manifested || state) {
		seedShards, seed = seed.Shards(), nil
	}
	if S := lay.shardCount(); S > 1 && !manifested {
		sp := lay.opts.Space
		if err := writeManifest(dir, manifest{
			Version: manifestVersion,
			Shards:  S,
			NX:      lay.opts.NX, NY: lay.opts.NY,
			MinX: sp.MinX, MinY: sp.MinY, MaxX: sp.MaxX, MaxY: sp.MaxY,
		}); err != nil {
			return nil, wal.RecoveryInfo{}, fmt.Errorf("shard: writing %s: %w", manifestName, err)
		}
	}

	d, info, err := wal.OpenState(wo, seed, lay.codec(opts))
	if err != nil {
		return nil, info, err
	}
	if seedShards > 0 {
		nx, ny := d.Live().Snapshot().GridDims()
		logger.Warn("durability dir has prior state; ignoring seed, recovered layout wins",
			"dir", dir, "recovered_shards", lay.shardCount(), "seed_shards", seedShards,
			"recovered_grid", fmt.Sprintf("%dx%d", nx, ny))
	}
	return d, info, nil
}

// migrate rewrites a version-1 directory in the version-2 layout: it
// recovers every shard's log directory (legacyEngine), writes the
// engine as one top-level checkpoint at its epoch, commits the
// version-2 manifest and removes the shard directories. Until the
// manifest commits, the shard directories are the truth: stale, the
// top-level checkpoints an interrupted migration left, is removed
// first. Once it commits, the checkpoint is (Open removes shard
// directories a kill left behind).
func migrate(dir string, m manifest, opts core.Options, stale []string, logger *slog.Logger) error {
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	e, err := legacyEngine(dir, m, opts, logger)
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(dir, e.Epoch(), func(w io.Writer) error { return saveEngine(w, e) }); err != nil {
		return err
	}
	m.Version = manifestVersion
	if err := writeManifest(dir, m); err != nil {
		return err
	}
	legacy := make([]string, m.Shards)
	for s := range legacy {
		legacy[s] = shardDir(dir, s)
	}
	logger.Info("migrated per-shard logs to one log", "dir", dir, "shards", m.Shards,
		"epoch", e.Epoch(), "objects", e.Len())
	return removeDirs(dir, legacy)
}

// legacyEngine recovers the engine a version-1 directory holds: every
// shard from its own log directory through wal.Recover, at the shard's
// own epoch, so the engine epoch is their maximum. The distinct size is
// recounted (version 1 recorded none).
func legacyEngine(dir string, m manifest, opts core.Options, logger *slog.Logger) (*Engine, error) {
	lay := m.layout(opts)
	e := lay.empty()
	for s := range e.shards {
		sd := shardDir(dir, s)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, err
		}
		six, _, _, err := wal.Recover(sd, lay.shardOpts(s), logger.With("shard", s))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		e.shards[s] = six
	}
	e.size = e.countDistinct()
	return e, nil
}

// removeDirs removes the given directories of dir and makes the removal
// durable.
func removeDirs(dir string, dirs []string) error {
	for _, p := range dirs {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return wal.SyncDir(dir)
}
