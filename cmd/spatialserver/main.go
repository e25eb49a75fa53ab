// Command spatialserver serves spatial queries over a two-layer index as
// a long-lived HTTP/JSON service: POST /v1/{window,disk,knn,batch}, with
// GET /v1/stats, /metrics, and /healthz for observability. The index is
// built once from a dataset file (or loaded from a binary snapshot) and
// then served concurrently; with -live it additionally accepts updates on
// POST /v1/insert, /v1/delete, and /v1/bulk, serving every query from an
// immutable copy-on-write snapshot. The process shuts down gracefully on SIGINT or
// SIGTERM.
//
// Usage:
//
//	spatialserver -data roads.csv -addr :8080
//	spatialserver -data roads.wkt -grid 1024 -save roads.idx
//	spatialserver -snapshot roads.idx -pprof
//	spatialserver -snapshot roads.idx -live -max-backlog 4096
//	spatialserver -data roads.csv -data-dir /var/lib/spatial -fsync always
//	spatialserver -data-dir /var/lib/spatial   # recover and keep serving
//	spatialserver -data roads.csv -shards 8    # scatter-gather serving
//	spatialserver -data roads.csv -shards 8 -live -data-dir /var/lib/spatial
//
// Every endpoint routes through the scatter-gather engine
// (docs/SHARDING.md); without -shards it has one shard, the index
// itself. With -shards N it is N self-contained two-layer indices over
// contiguous slabs of the tile space, which a query walks in order with
// duplicate-free merging. Combined with -live one apply loop publishes
// every shard of each snapshot at once; combined with -data-dir that
// loop journals to one write-ahead log. The directory decides the
// layout: -shards shapes only a fresh -data-dir, and a directory with
// prior state recovers with the shard count it was written with.
//
// With -data-dir the server runs durably: mutations are written ahead to
// a segmented log before they are acknowledged, checkpoints are taken in
// the background (and on POST /v1/checkpoint), and startup recovers the
// acknowledged state — tolerating a torn log tail from a crash. See
// docs/DURABILITY.md for the engine and docs/SERVER.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/dataio"
	"github.com/twolayer/twolayer/internal/server"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// loadGeoms reads the dataset file (CSV, or WKT if the name ends in
// .wkt), logs how long that took, and returns its geometries.
func loadGeoms(dataPath string, logger *slog.Logger) []twolayer.Geometry {
	f, err := os.Open(dataPath)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		fail(err)
	}
	read := dataio.ReadDataset
	if strings.HasSuffix(dataPath, ".wkt") {
		read = dataio.ReadWKT
	}
	start := time.Now()
	d, err := read(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", dataPath, err))
	}
	logger.Info("dataset read",
		"objects", d.Len(),
		"bytes", fi.Size(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return d.Geoms
}

// loadIndex builds the index from -data (CSV or WKT, with exact
// geometries) or loads a -snapshot (MBR-only). The returned duration is
// the build/load wall time, exported as twolayer_index_build_seconds.
func loadIndex(dataPath, snapshotPath string, gridSize int, logger *slog.Logger) (*twolayer.Index, time.Duration) {
	switch {
	case dataPath != "" && snapshotPath != "":
		fail(fmt.Errorf("-data and -snapshot are mutually exclusive"))
	case dataPath != "":
		geoms := loadGeoms(dataPath, logger)
		start := time.Now()
		idx, err := twolayer.BuildGeomsErr(geoms, twolayer.Options{GridSize: gridSize})
		if err != nil {
			fail(fmt.Errorf("%s: %w", dataPath, err))
		}
		elapsed := time.Since(start)
		nx, ny := idx.GridDims()
		logger.Info("index built",
			"objects", idx.Len(),
			"grid", fmt.Sprintf("%dx%d", nx, ny),
			"replication", fmt.Sprintf("%.3f", idx.ReplicationFactor()),
			"elapsed", elapsed.Round(time.Millisecond))
		return idx, elapsed
	case snapshotPath != "":
		f, err := os.Open(snapshotPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		start := time.Now()
		idx, err := twolayer.Load(f)
		if err != nil {
			fail(fmt.Errorf("%s: %w", snapshotPath, err))
		}
		elapsed := time.Since(start)
		logger.Info("snapshot loaded",
			"objects", idx.Len(),
			"elapsed", elapsed.Round(time.Millisecond))
		return idx, elapsed
	}
	fail(fmt.Errorf("one of -data or -snapshot is required"))
	panic("unreachable")
}

// buildSharded builds the sharded engine over geoms. Input that
// BuildGeomsErr refuses makes the build panic, on this goroutine, with
// the text of BuildGeomsErr's error; buildSharded returns that text as
// its error, so the server fails with one line either way.
func buildSharded(geoms []twolayer.Geometry, opts twolayer.Options, so twolayer.ShardedOptions) (s *twolayer.Sharded, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			err = errors.New(r)
		default:
			panic(r)
		}
	}()
	return twolayer.BuildShardedGeoms(geoms, opts, so), nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataPath := flag.String("data", "", "dataset file to index (CSV, or WKT if the name ends in .wkt)")
	snapshotPath := flag.String("snapshot", "", "binary index snapshot to load instead of -data (MBR queries only)")
	savePath := flag.String("save", "", "after building from -data, write a snapshot here")
	gridSize := flag.Int("grid", 0, "grid tiles per dimension (0 = auto-tune from data size)")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-request evaluation deadline")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body size in bytes")
	trace := flag.Bool("trace", false, "attach a per-stage trace to every single-query response (clients can also opt in per request)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log queries (batches included) slower than this many milliseconds, with their trace (0 = off)")
	live := flag.Bool("live", false, "serve in live mode: accept updates on POST /v1/insert, /v1/delete, /v1/bulk (disables exact-geometry queries)")
	shards := flag.Int("shards", 0, "serve through a scatter-gather engine with this many spatial shards (0 = unsharded)")
	dataDir := flag.String("data-dir", "", "durable live mode: directory for the write-ahead log and checkpoints; implies -live, recovers automatically on startup")
	fsync := flag.String("fsync", "interval", `durable mode fsync policy: "always", "interval", or "none"`)
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "durable mode: background fsync period under -fsync=interval")
	checkpointEvery := flag.Int("checkpoint-every", 0, "durable mode: automatic checkpoint after this many mutations (0 = default 65536, negative = never)")
	segmentBytes := flag.Int64("segment-bytes", 0, "durable mode: log segment rotation threshold in bytes (0 = default 8 MiB)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrent requests per endpoint class (0 = default max(16, 4*GOMAXPROCS), negative = disable admission control)")
	queueDepth := flag.Int("queue-depth", 0, "admission control: waiting requests per endpoint class before shedding with 429 (0 = default 8*max-inflight, negative = no queue)")
	maxBacklog := flag.Int("max-backlog", 0, "live mode: reject mutations with 503 once this many are accepted but not yet published (0 = unbounded)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fail(fmt.Errorf("-log-level: %w", err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *slowQueryMS < 0 {
		fail(fmt.Errorf("-slow-query-ms must be >= 0"))
	}
	if *gridSize < 0 {
		fail(fmt.Errorf("-grid must be >= 0"))
	}
	if *shards < 0 {
		fail(fmt.Errorf("-shards must be >= 0"))
	}

	durable := *dataDir != ""
	sharded := *shards != 0
	// A mode-only flag fails outside its mode instead of being ignored
	// (-fsync always without -data-dir would promise absent durability).
	active := map[string]bool{"-live": *live || durable, "-data-dir": durable}
	requires := map[string]string{
		"max-backlog":      "-live",
		"fsync":            "-data-dir",
		"fsync-interval":   "-data-dir",
		"checkpoint-every": "-data-dir",
		"segment-bytes":    "-data-dir",
	}
	flag.Visit(func(f *flag.Flag) {
		if mode, ok := requires[f.Name]; ok && !active[mode] {
			fail(fmt.Errorf("-%s requires %s", f.Name, mode))
		}
	})
	if sharded {
		// A snapshot deserializes into a single index without the source
		// dataset, so it can neither become nor be produced from shards.
		if *snapshotPath != "" {
			fail(fmt.Errorf("-shards is incompatible with -snapshot (shards build from -data)"))
		}
		if *savePath != "" {
			fail(fmt.Errorf("-shards is incompatible with -save"))
		}
	}
	var idx *twolayer.Index
	var shardedIdx *twolayer.Sharded
	var buildDur time.Duration
	switch {
	case sharded:
		// In durable mode a data source is only a seed for an empty
		// -data-dir; a dir with prior state recovers instead.
		if !durable && *dataPath == "" {
			fail(fmt.Errorf("-shards requires -data (or -data-dir to recover)"))
		}
		if *dataPath != "" {
			geoms := loadGeoms(*dataPath, logger)
			start := time.Now()
			var err error
			shardedIdx, err = buildSharded(geoms,
				twolayer.Options{GridSize: *gridSize},
				twolayer.ShardedOptions{Shards: *shards})
			if err != nil {
				fail(fmt.Errorf("%s: %w", *dataPath, err))
			}
			buildDur = time.Since(start)
			nx, ny := shardedIdx.GridDims()
			logger.Info("sharded engine built",
				"objects", shardedIdx.Len(),
				"shards", shardedIdx.Shards(),
				"grid", fmt.Sprintf("%dx%d", nx, ny),
				"replication", fmt.Sprintf("%.3f", shardedIdx.ReplicationFactor()),
				"elapsed", buildDur.Round(time.Millisecond))
		}
	case !durable || *dataPath != "" || *snapshotPath != "":
		idx, buildDur = loadIndex(*dataPath, *snapshotPath, *gridSize, logger)
	}
	if *savePath != "" {
		if *dataPath == "" {
			fail(fmt.Errorf("-save requires -data"))
		}
		f, err := os.Create(*savePath)
		if err != nil {
			fail(err)
		}
		n, err := idx.Save(f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fail(fmt.Errorf("saving snapshot: %w", err))
		}
		logger.Info("snapshot saved", "path", *savePath, "bytes", n)
	}

	cfg := server.Config{
		Logger:             logger,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		EnableTracing:      *trace,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
		BuildDuration:      buildDur,
		EnablePprof:        *pprofFlag,
		MaxInflight:        *maxInflight,
		QueueDepth:         *queueDepth,
	}
	if *maxBacklog < 0 {
		fail(fmt.Errorf("-max-backlog must be >= 0"))
	}
	// An unsharded index is served as the one-shard engine.
	if shardedIdx == nil && idx != nil {
		shardedIdx = twolayer.OneShard(idx)
	}
	var shardCount int
	switch {
	case durable:
		policy, err := twolayer.ParseSyncPolicy(*fsync)
		if err != nil {
			fail(err)
		}
		dl, _, err := twolayer.OpenDurable(
			twolayer.Options{GridSize: *gridSize},
			twolayer.LiveOptions{MaxBacklog: *maxBacklog},
			twolayer.DurableOptions{
				Dir:             *dataDir,
				Fsync:           policy,
				FsyncInterval:   *fsyncInterval,
				CheckpointEvery: *checkpointEvery,
				SegmentBytes:    *segmentBytes,
				Seed:            shardedIdx,
				Logger:          logger,
			})
		if err != nil {
			if entries, _ := os.ReadDir(*dataDir); shardedIdx == nil && len(entries) == 0 {
				err = fmt.Errorf("%w (a fresh -data-dir needs -data or -snapshot to seed it)", err)
			}
			fail(err)
		}
		defer dl.Close()
		cfg.Durable = dl
		shardCount = dl.Live().Shards()
		// Summed over the shards.
		rec := dl.Stats().Recovery
		logger.Info("durable live mode",
			"dir", *dataDir,
			"fsync", policy.String(),
			"shards", shardCount,
			"objects", dl.Snapshot().Len(),
			"recovered_epoch", rec.Epoch,
			"checkpoint_loaded", rec.CheckpointLoaded,
			"replayed_records", rec.ReplayedRecords,
			"truncated_tail", rec.TruncatedTail)
	case *live:
		shardCount = shardedIdx.Shards()
		cfg.ShardedLive = twolayer.ShardedLiveFrom(shardedIdx, twolayer.LiveOptions{MaxBacklog: *maxBacklog})
		defer cfg.ShardedLive.Close()
		logger.Info("live mode", "shards", shardCount)
	default:
		shardCount = shardedIdx.Shards()
		cfg.Sharded = shardedIdx
	}
	// A live engine keeps MBRs only: free the parsed geometries before the heap doubles past them.
	if *dataPath != "" && (durable || *live) {
		runtime.GC()
	}
	srv := server.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Log the effective topology, not the raw flags: -data-dir implies
	// live mode.
	logger.Info("serving", "addr", *addr, "pprof", *pprofFlag,
		"trace", *trace, "slow_query_ms", *slowQueryMS, "live", *live || durable,
		"shards", shardCount, "timeout", *timeout)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fail(err)
	}
	logger.Info("shutdown complete")
}
