package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/wal"
)

// Durability layouts. The directory, not the caller, decides which one
// a reopen uses (see Open):
//
//	dir/                  one shard (the flat layout)
//	  wal-*, checkpoint-* — the shard's WAL: segments + checkpoints
//
//	dir/                  S > 1 shards
//	  shards.json         — the layout manifest, written atomically first
//	  shard-000/ ...      — one WAL directory per shard, same format
//
// The manifest pins the shard geometry (count, grid dimensions, space);
// it is written before any shard WAL is created, so a directory with
// shard state always has one. A flat directory needs none: its one
// shard's grid is its checkpoint's.

// manifestName is the layout manifest file inside the durability dir.
const manifestName = "shards.json"

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

// hasManifest reports whether dir holds sharded durability state (a
// layout manifest; the manifest is written before any shard WAL, so it is
// the reliable signal).
func hasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("shard: parsing %s: %w", manifestName, err)
	}
	if m.Shards < 1 || m.NX < 1 || m.NY < 1 {
		return manifest{}, fmt.Errorf("shard: manifest %s has invalid layout (%d shards, %dx%d grid)",
			manifestName, m.Shards, m.NX, m.NY)
	}
	return m, nil
}

// writeManifest persists the layout with the tmp+rename idiom so a crash
// mid-write never leaves a truncated manifest behind.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// Durable couples a sharded Live with one write-ahead log per shard.
type Durable struct {
	live *Live
	ds   []*wal.DurableLive
}

// Open recovers (or cold-starts) the durable engine in wo.Dir. wo's
// sync policy, rotation and checkpoint cadence apply to every shard's
// WAL, wo.Live to every apply loop, and wo.Index shapes an empty
// directory; Open sets the rest per shard. The directory decides the
// layout:
//
//   - a layout manifest: the manifest's shards, one WAL directory each;
//   - WAL state at its top level: one shard whose WAL is wo.Dir itself,
//     on the grid of its recovered checkpoint;
//   - neither (a cold start): seed's layout, or one shard over wo.Index
//     (which must then carry a Space) when seed is nil. One shard writes
//     the flat layout; more write the manifest first, then every shard
//     WAL, each seeded with its shard of seed.
//
// A directory holding both a manifest and top-level WAL state is
// refused: either half may hold acknowledged writes the other lacks.
// With prior state, seed is ignored with a notice. Open takes ownership
// of seed. The returned RecoveryInfo slice has one entry per shard.
func Open(wo wal.Options, seed *Engine) (*Durable, []wal.RecoveryInfo, error) {
	dir, opts := wo.Dir, wo.Index
	logger := wo.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: creating durability dir: %w", err)
	}
	flat, err := wal.HasState(dir)
	if err != nil {
		return nil, nil, err
	}
	manifested := hasManifest(dir)

	var lay layout
	switch {
	case manifested && flat:
		return nil, nil, fmt.Errorf(
			"shard: %s holds both a layout manifest (%s) and write-ahead log state at its top level; "+
				"refusing to pick one, since either may hold acknowledged writes the other lacks",
			dir, manifestName)
	case manifested:
		m, err := readManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		lay = makeLayout(core.Options{
			NX: m.NX, NY: m.NY,
			Space:        geom.Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY},
			Decompose:    opts.Decompose,
			BuildThreads: opts.BuildThreads,
		}, m.Shards)
	case seed != nil && !flat:
		lay = seed.lay
	case opts.Space == (geom.Rect{}) && !flat:
		return nil, nil, errors.New("shard: an empty durability dir needs Options.Space or a seed")
	default:
		// One shard, on the grid of its index once the WAL is open.
		lay = makeLayout(opts, 1)
	}
	seedShards := 0
	if seed != nil && (manifested || flat) {
		seedShards, seed = seed.Shards(), nil
	}

	// A flat directory is one shard whose WAL is the directory itself.
	S := lay.shardCount()
	flatLayout := !manifested && S == 1
	if !flatLayout && !manifested {
		sp := lay.opts.Space
		if err := writeManifest(dir, manifest{
			Version: 1,
			Shards:  S,
			NX:      lay.opts.NX, NY: lay.opts.NY,
			MinX: sp.MinX, MinY: sp.MinY, MaxX: sp.MaxX, MaxY: sp.MaxY,
		}); err != nil {
			return nil, nil, fmt.Errorf("shard: writing %s: %w", manifestName, err)
		}
	}

	ds := make([]*wal.DurableLive, S)
	infos := make([]wal.RecoveryInfo, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := wo
			o.Seed = nil
			if !flatLayout {
				o.Dir, o.Index, o.Logger = shardDir(dir, s), lay.shardOpts(s), logger.With("shard", s)
			}
			if seed != nil {
				o.Seed = seed.shards[s]
			}
			ds[s], infos[s], errs[s] = wal.Open(o)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			// Unwind the shards that did open; the engine starts all-or-nothing.
			for _, d := range ds {
				if d != nil {
					d.Close()
				}
			}
			if flatLayout {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}

	lives := make([]*core.Live, S)
	for s, d := range ds {
		lives[s] = d.Live()
	}
	if flatLayout {
		lay = oneLayout(lives[0].Snapshot())
	}
	if seedShards > 0 {
		logger.Warn("durability dir has prior state; ignoring seed, recovered layout wins",
			"dir", dir, "recovered_shards", S, "seed_shards", seedShards,
			"recovered_grid", fmt.Sprintf("%dx%d", lay.opts.NX, lay.opts.NY))
	}
	// The distinct size of several shards is recomputed from their
	// contents; one shard's is its own Len.
	live := &Live{lay: lay, lives: lives, met: newMetrics(S)}
	if S > 1 {
		live.size.Store(int64(live.Snapshot().countDistinct()))
	}
	return &Durable{live: live, ds: ds}, infos, nil
}

// Live returns the mutation interface of the sharded durable engine.
func (d *Durable) Live() *Live { return d.live }

// Checkpoint forces a checkpoint of every shard concurrently, returning
// the maximum checkpointed epoch and the first error encountered (other
// shards still complete).
func (d *Durable) Checkpoint() (uint64, error) {
	if len(d.ds) == 1 {
		return d.ds[0].Checkpoint()
	}
	epochs := make([]uint64, len(d.ds))
	errs := make([]error, len(d.ds))
	var wg sync.WaitGroup
	for s := range d.ds {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			epochs[s], errs[s] = d.ds[s].Checkpoint()
		}(s)
	}
	wg.Wait()
	var max uint64
	for _, ep := range epochs {
		if ep > max {
			max = ep
		}
	}
	for s, err := range errs {
		if err != nil {
			return max, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return max, nil
}

// Stats aggregates the per-shard durability stats: sums for throughput
// and size counters, the minimum checkpoint epoch (the engine's replay
// bound is its least-checkpointed shard) with the corresponding maximum
// age, and the first failure string encountered. One shard's are its
// own.
func (d *Durable) Stats() wal.Stats {
	if len(d.ds) == 1 {
		return d.ds[0].Stats()
	}
	var out wal.Stats
	for s, dl := range d.ds {
		st := dl.Stats()
		if s == 0 {
			out.Policy = st.Policy
			out.CheckpointEpoch = st.CheckpointEpoch
		}
		out.Segments += st.Segments
		out.LogBytes += st.LogBytes
		out.AppendedRecords += st.AppendedRecords
		out.AppendedBytes += st.AppendedBytes
		out.Fsyncs += st.Fsyncs
		out.Rotations += st.Rotations
		out.PrunedSegments += st.PrunedSegments
		out.Checkpoints += st.Checkpoints
		if st.CheckpointEpoch < out.CheckpointEpoch {
			out.CheckpointEpoch = st.CheckpointEpoch
		}
		if st.CheckpointAge > out.CheckpointAge {
			out.CheckpointAge = st.CheckpointAge
		}
		out.SinceCheckpoint += st.SinceCheckpoint
		out.AppendTotal += st.AppendTotal
		out.FsyncTotal += st.FsyncTotal
		out.CheckpointTotal += st.CheckpointTotal
		if out.Failed == "" && st.Failed != "" {
			out.Failed = fmt.Sprintf("shard %d: %s", s, st.Failed)
		}
		out.Recovery.ReplayedRecords += st.Recovery.ReplayedRecords
		out.Recovery.ReplayedMutations += st.Recovery.ReplayedMutations
		out.Recovery.SkippedRecords += st.Recovery.SkippedRecords
		out.Recovery.SkippedBadCkpts += st.Recovery.SkippedBadCkpts
		out.Recovery.Segments += st.Recovery.Segments
		out.Recovery.TruncatedTail = out.Recovery.TruncatedTail || st.Recovery.TruncatedTail
		out.Recovery.CheckpointLoaded = out.Recovery.CheckpointLoaded || st.Recovery.CheckpointLoaded
		if st.Recovery.Epoch > out.Recovery.Epoch {
			out.Recovery.Epoch = st.Recovery.Epoch
		}
	}
	return out
}

// Close stops every shard's apply loop and WAL, flushing buffered log
// data. It returns the combined close errors, if any.
func (d *Durable) Close() error {
	errs := make([]error, len(d.ds))
	var wg sync.WaitGroup
	for s := range d.ds {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = d.ds[s].Close()
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
