// Durable: an apply loop whose mutation stream is journaled and
// checkpointed, recovering to exactly the acknowledged state on restart.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twolayer/twolayer/internal/core"
)

// Options configure Open.
type Options struct {
	// Dir is the durability directory (log segments + checkpoints).
	// Created if missing. Required.
	Dir string
	// Policy selects the fsync discipline; zero value is SyncInterval.
	Policy SyncPolicy
	// SyncEvery is the background flush period under SyncInterval.
	// Defaults to 100ms.
	SyncEvery time.Duration
	// SegmentBytes is the rotation threshold for log segments.
	// Defaults to 8 MiB.
	SegmentBytes int64
	// CheckpointEvery triggers an automatic checkpoint after this many
	// journaled mutations. 0 means the default of 65536; negative
	// disables automatic checkpoints (POST /checkpoint and Close-time
	// recovery still work — the log just grows until pruned manually).
	CheckpointEvery int
	// Index builds the starting index on a cold start (empty Dir and no
	// Seed). Also the fallback shape when every checkpoint is unreadable.
	Index core.Options
	// Live tunes the apply loop. The Journal hook is owned by the
	// durability layer and must be nil.
	Live core.LiveOptions
	// Seed, when non-nil and Dir holds no prior state, becomes the
	// initial index: it is checkpointed immediately (so it is durable
	// before any mutation is accepted) and ownership transfers to the
	// Live index. Ignored — with a logged notice — when Dir already has
	// state; recovery always wins over re-seeding.
	Seed *core.Index
	// Logger receives recovery and background-error notices.
	// Defaults to slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 65536
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Stats is a point-in-time view of the durability layer.
type Stats struct {
	Policy          SyncPolicy
	Segments        int    // on-disk log segment files (incl. active)
	LogBytes        int64  // total bytes across segments
	AppendedRecords uint64 // frames appended since Open
	AppendedBytes   uint64
	Fsyncs          uint64
	Rotations       uint64
	PrunedSegments  uint64
	Checkpoints     uint64        // checkpoints written since Open
	CheckpointEpoch uint64        // epoch of the newest checkpoint, 0 if none
	CheckpointAge   time.Duration // since the newest checkpoint, 0 if none
	SinceCheckpoint int64         // mutations journaled since that checkpoint
	// Latency accumulators, all cumulative since Open: AppendTotal is the
	// wall time spent inside successful journal appends (encode + write,
	// plus the per-batch fsync under SyncAlways), FsyncTotal the time
	// inside fsync calls regardless of trigger, CheckpointTotal the time
	// writing checkpoint files. Divide by the corresponding count for a
	// mean; export as counters to rate in monitoring systems.
	AppendTotal     time.Duration
	FsyncTotal      time.Duration
	CheckpointTotal time.Duration
	// Failed is non-empty once the log has hit an unrecoverable write or
	// fsync error (the on-disk tail can no longer be trusted): every
	// subsequent mutation is rejected with this error. A non-empty value
	// is an operator signal to fail the node over and inspect the disk.
	Failed   string
	Recovery RecoveryInfo
}

// Codec stores the value of an apply loop in checkpoint files: Save
// writes it, Load reads it back (from a *bufio.Reader, so a value of
// several parts can be read part by part), and Empty makes the value a
// directory with no checkpoint starts from.
type Codec[T any, P core.State[T]] struct {
	Load  func(r io.Reader) (P, error)
	Save  func(w io.Writer, v P) error
	Empty func() P
}

// indexCodec is the Codec of one index: the core persist format, and an
// empty index of opts on a cold start.
func indexCodec(opts core.Options) Codec[core.Index, *core.Index] {
	return Codec[core.Index, *core.Index]{
		Load:  core.Load,
		Save:  func(w io.Writer, ix *core.Index) error { _, err := ix.WriteTo(w); return err },
		Empty: func() *core.Index { return core.New(opts) },
	}
}

// Durable couples an apply loop with the write-ahead log: every mutation
// batch is journaled (and fsynced per Options.Policy) at the epoch it
// publishes as before it is applied or acknowledged, checkpoints of the
// loop's snapshots bound replay time, and opening restores the
// acknowledged state after a crash. All methods are safe for concurrent
// use.
type Durable[T any, P core.State[T]] struct {
	dir    string
	opt    Options
	save   func(io.Writer, P) error
	live   *core.Loop[T, P]
	log    *appendLog
	logger *slog.Logger
	rec    RecoveryInfo

	ckptMu      sync.Mutex // serializes checkpoint writes
	ckptEpoch   atomic.Uint64
	ckptNS      atomic.Int64 // unixnano of the newest checkpoint, 0 if none
	ckptCount   atomic.Uint64
	ckptTotalNS atomic.Int64 // cumulative wall time writing checkpoints
	sinceCkpt   atomic.Int64

	ckptCh    chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// DurableLive is the Durable of one index.
type DurableLive = Durable[core.Index, *core.Index]

// Open recovers (or cold-starts) the index stored in opts.Dir and wraps
// it in a journaling Live index. The returned RecoveryInfo reports what
// recovery found; after a clean shutdown it shows zero replayed records.
func Open(opts Options) (*DurableLive, RecoveryInfo, error) {
	return OpenState(opts, opts.Seed, indexCodec(opts.Index))
}

// OpenState is Open for any loop value: it recovers the value stored in
// opts.Dir with c (the newest readable checkpoint plus the log tail) or,
// when the directory holds no state, starts from seed — checkpointed
// before any mutation is accepted — or from c.Empty when seed is nil.
// opts.Seed and opts.Index are not used.
func OpenState[T any, P core.State[T]](opts Options, seed P, c Codec[T, P]) (*Durable[T, P], RecoveryInfo, error) {
	if opts.Dir == "" {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.Live.Journal != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: Options.Live.Journal must be nil (owned by the durability layer)")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: creating data dir: %w", err)
	}

	v, segs, info, err := recoverState(opts.Dir, c, opts.Logger)
	if err != nil {
		return nil, info, err
	}
	fresh := !info.CheckpointLoaded && info.SkippedBadCkpts == 0 &&
		info.Segments == 0 && info.ReplayedRecords == 0 && info.SkippedRecords == 0
	if seed != nil {
		if fresh {
			v = seed
			if err := WriteCheckpoint(opts.Dir, v.Epoch(), func(w io.Writer) error { return c.Save(w, v) }); err != nil {
				return nil, info, fmt.Errorf("wal: checkpointing seed index: %w", err)
			}
			info.CheckpointEpoch = v.Epoch()
			info.CheckpointLoaded = true
			info.Epoch = v.Epoch()
		} else {
			opts.Logger.Warn("durability dir has prior state; ignoring seed index",
				"dir", opts.Dir, "epoch", v.Epoch())
		}
	}

	log, err := openLog(opts.Dir, v.Epoch()+1, segs, opts.SegmentBytes, opts.Policy, opts.SyncEvery, opts.Logger)
	if err != nil {
		return nil, info, err
	}
	d := &Durable[T, P]{
		dir:    opts.Dir,
		opt:    opts,
		save:   c.Save,
		log:    log,
		logger: opts.Logger,
		rec:    info,
		ckptCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	if info.CheckpointLoaded {
		d.ckptEpoch.Store(info.CheckpointEpoch)
		d.ckptNS.Store(time.Now().UnixNano())
	}
	liveOpts := opts.Live
	liveOpts.Journal = d.journal
	d.live = core.NewLoop(v, liveOpts)
	d.wg.Add(1)
	go d.checkpointLoop()
	return d, info, nil
}

// Live returns the apply loop. Mutations submitted through it are
// journaled — the write-ahead hook lives inside the loop, so there is
// no undurable side door.
func (d *Durable[T, P]) Live() *core.Loop[T, P] { return d.live }

// journal is the core.LiveOptions.Journal hook: append-before-publish,
// plus the automatic checkpoint trigger.
func (d *Durable[T, P]) journal(epoch uint64, muts []core.Mutation) error {
	if err := d.log.Append(epoch, muts); err != nil {
		return err
	}
	if d.opt.CheckpointEvery > 0 &&
		d.sinceCkpt.Add(int64(len(muts))) >= int64(d.opt.CheckpointEvery) {
		select {
		case d.ckptCh <- struct{}{}:
		default: // one already pending
		}
	}
	return nil
}

func (d *Durable[T, P]) checkpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.ckptCh:
			if _, err := d.Checkpoint(); err != nil {
				d.logger.Warn("automatic checkpoint failed", "err", err)
			}
		case <-d.stop:
			return
		}
	}
}

// Checkpoint writes the current snapshot as a checkpoint file (atomic
// tmp+rename), prunes log segments it covers, and drops superseded
// checkpoint files. It returns the checkpointed epoch, and is a cheap
// no-op when no mutations were published since the last checkpoint.
// Writers and readers are never paused: the snapshot is immutable.
func (d *Durable[T, P]) Checkpoint() (uint64, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	snap := d.live.Snapshot()
	epoch := snap.Epoch()
	if d.ckptNS.Load() != 0 && epoch <= d.ckptEpoch.Load() {
		return epoch, nil
	}
	// Mutations journaled from here on count toward the next checkpoint;
	// if the write fails the count is restored so the automatic trigger
	// refires promptly instead of waiting out a whole fresh interval.
	saved := d.sinceCkpt.Swap(0)
	start := time.Now()
	if err := WriteCheckpoint(d.dir, epoch, func(w io.Writer) error { return d.save(w, snap) }); err != nil {
		d.sinceCkpt.Add(saved)
		return 0, err
	}
	d.ckptTotalNS.Add(time.Since(start).Nanoseconds())
	d.ckptEpoch.Store(epoch)
	d.ckptNS.Store(time.Now().UnixNano())
	d.ckptCount.Add(1)
	d.log.Prune(epoch)
	d.dropOldCheckpoints(epoch)
	return epoch, nil
}

// dropOldCheckpoints keeps the newest checkpoint plus one predecessor
// (a cheap hedge against a latent bad write) and removes the rest.
func (d *Durable[T, P]) dropOldCheckpoints(newest uint64) {
	ckpts, _, err := listState(d.dir)
	if err != nil {
		return
	}
	keep := 0
	for i := len(ckpts) - 1; i >= 0; i-- {
		if ckpts[i].first <= newest {
			keep++
		}
		if keep > 2 {
			os.Remove(ckpts[i].path)
		}
	}
}

// WriteCheckpoint atomically persists what save writes as dir's
// checkpoint for epoch: write to a temp file, fsync, rename, fsync the
// directory.
func WriteCheckpoint(dir string, epoch uint64, save func(io.Writer) error) error {
	final := filepath.Join(dir, checkpointName(epoch))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = save(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so the entries created, renamed or removed
// in it are durable.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = df.Sync()
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// Stats reports the durability counters.
func (d *Durable[T, P]) Stats() Stats {
	ls := d.log.Stats()
	s := Stats{
		Policy:          d.opt.Policy,
		Segments:        ls.segments,
		LogBytes:        ls.logBytes,
		AppendedRecords: ls.appended,
		AppendedBytes:   ls.appendedB,
		Fsyncs:          ls.fsyncs,
		Rotations:       ls.rotations,
		PrunedSegments:  ls.pruned,
		Checkpoints:     d.ckptCount.Load(),
		CheckpointEpoch: d.ckptEpoch.Load(),
		SinceCheckpoint: d.sinceCkpt.Load(),
		AppendTotal:     time.Duration(ls.appendNS),
		FsyncTotal:      time.Duration(ls.syncNS),
		CheckpointTotal: time.Duration(d.ckptTotalNS.Load()),
		Recovery:        d.rec,
	}
	if ls.failed != nil {
		s.Failed = ls.failed.Error()
	}
	if ns := d.ckptNS.Load(); ns != 0 {
		s.CheckpointAge = time.Since(time.Unix(0, ns))
	}
	return s
}

// Close stops the checkpointer, drains and closes the live index (its
// final batches are journaled on the way out), and closes the log with a
// final fsync. A recovered restart after a clean Close replays only the
// frames above the last checkpoint. Close is idempotent.
func (d *Durable[T, P]) Close() error {
	d.closeOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
		d.live.Close()
		d.closeErr = d.log.Close()
	})
	return d.closeErr
}
