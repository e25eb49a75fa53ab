package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/wal"
)

// Sharded durability layout:
//
//	dir/
//	  shards.json   — the layout manifest, written atomically on cold start
//	  shard-000/    — one complete WAL directory per shard
//	  shard-001/       (segments + checkpoints, same format as unsharded)
//	  ...
//
// The manifest pins the shard geometry (count, grid dimensions, space).
// It is written before any shard WAL is created, so a directory with
// shard state always has one; on reopen it is authoritative — the
// recovered layout wins over whatever options the caller passed (with a
// logged notice), since per-shard logs are only meaningful under the
// layout that produced them. Shards recover concurrently.

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

// HasState reports whether dir holds sharded durability state (a layout
// manifest; the manifest is written before any shard WAL, so it is the
// reliable signal).
func HasState(dir string) bool {
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

// DurableOptions configure Open. Per-shard WALs share the sync policy,
// rotation threshold, and checkpoint cadence.
type DurableOptions struct {
	// Dir is the sharded durability directory. Created if missing.
	Dir string
	// Policy, SyncEvery, SegmentBytes, and CheckpointEvery apply to every
	// shard's WAL; see wal.Options for semantics and defaults.
	Policy          wal.SyncPolicy
	SyncEvery       time.Duration
	SegmentBytes    int64
	CheckpointEvery int
	// Logger receives recovery and background-error notices.
	Logger *slog.Logger
}

// Durable couples a sharded Live with one write-ahead log per shard.
type Durable struct {
	live *Live
	ds   []*wal.DurableLive
}

// Open recovers (or cold-starts) a sharded durable engine in do.Dir.
//
// Cold start: the layout derives from opts/shards (or from seed's layout
// when non-nil), the manifest is written first, then every shard WAL is
// created — seeded with the corresponding shard of seed, which Open
// takes ownership of. Reopen: the manifest's layout wins over opts and
// shards (logged when they disagree), seed is ignored with a notice, and
// all shard WALs recover concurrently. The returned RecoveryInfo slice
// has one entry per shard.
func Open(opts core.Options, lo core.LiveOptions, do DurableOptions, shards int, seed *Engine) (*Durable, []wal.RecoveryInfo, error) {
	logger := do.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(do.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("shard: creating durability dir: %w", err)
	}

	var lay layout
	if HasState(do.Dir) {
		m, err := readManifest(do.Dir)
		if err != nil {
			return nil, nil, err
		}
		recovered := core.Options{
			NX: m.NX, NY: m.NY,
			Space:        geom.Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY},
			Decompose:    opts.Decompose,
			BuildThreads: opts.BuildThreads,
		}
		lay = makeLayout(recovered, m.Shards)
		if seed != nil {
			logger.Warn("sharded durability dir has prior state; ignoring seed", "dir", do.Dir)
			seed = nil
		}
		if shards > 0 || opts != (core.Options{}) {
			req := makeLayout(opts, shards)
			if req.shardCount() != lay.shardCount() || req.opts.NX != lay.opts.NX ||
				req.opts.NY != lay.opts.NY || req.opts.Space != lay.opts.Space {
				logger.Warn("recovered shard layout differs from requested options; recovered layout wins",
					"dir", do.Dir,
					"recovered_shards", lay.shardCount(), "requested_shards", req.shardCount(),
					"recovered_grid", fmt.Sprintf("%dx%d", lay.opts.NX, lay.opts.NY),
					"requested_grid", fmt.Sprintf("%dx%d", req.opts.NX, req.opts.NY))
			}
		}
	} else {
		if seed != nil {
			lay = seed.lay
		} else {
			lay = makeLayout(opts, shards)
		}
		sp := lay.opts.Space
		if err := writeManifest(do.Dir, manifest{
			Version: 1,
			Shards:  lay.shardCount(),
			NX:      lay.opts.NX, NY: lay.opts.NY,
			MinX: sp.MinX, MinY: sp.MinY, MaxX: sp.MaxX, MaxY: sp.MaxY,
		}); err != nil {
			return nil, nil, fmt.Errorf("shard: writing %s: %w", manifestName, err)
		}
	}

	S := lay.shardCount()
	ds := make([]*wal.DurableLive, S)
	infos := make([]wal.RecoveryInfo, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wo := wal.Options{
				Dir:             shardDir(do.Dir, s),
				Policy:          do.Policy,
				SyncEvery:       do.SyncEvery,
				SegmentBytes:    do.SegmentBytes,
				CheckpointEvery: do.CheckpointEvery,
				Index:           lay.shardOpts(s),
				Live:            lo,
				Logger:          logger.With("shard", s),
			}
			if seed != nil {
				wo.Seed = seed.shards[s]
			}
			ds[s], infos[s], errs[s] = wal.Open(wo)
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
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}

	lives := make([]*core.Live, S)
	for s, d := range ds {
		lives[s] = d.Live()
	}
	live := liveOver(lay, lives)
	return &Durable{live: live, ds: ds}, infos, nil
}

// Live returns the mutation interface of the sharded durable engine.
func (d *Durable) Live() *Live { return d.live }

// Snapshot returns an immutable engine over the current shard snapshots.
func (d *Durable) Snapshot() *Engine { return d.live.Snapshot() }

// Checkpoint forces a checkpoint of every shard concurrently, returning
// the maximum checkpointed epoch and the first error encountered (other
// shards still complete).
func (d *Durable) Checkpoint() (uint64, error) {
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
// age, and the first failure string encountered.
func (d *Durable) Stats() wal.Stats {
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
