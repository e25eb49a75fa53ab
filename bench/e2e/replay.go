package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/dataio"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/server"
	"github.com/twolayer/twolayer/internal/spatial"
	"github.com/twolayer/twolayer/internal/wal"
)

// The in-process replay times the head of a workload's stream at each
// module's public entry point, from the outside: the program has no spans
// of its own yet. The reads of a round are replayed at every layer on the
// loaded state; a layer that applies writes gets its own stretch of the
// write stream, because applying moves the state on.
const (
	// A layer that applies writes replays replayWrites bulks; bulks are
	// alike, so every replayBlock-th one counts as the same operation
	// and the replay has rounds of its own.
	replayWrites = 32
	replayBlock  = 8
	replayClones = 16
)

// replayRounds is how often the reads of a round are replayed at every
// layer; as over HTTP, a read's time is the fastest of its rounds.
func replayRounds(w workload) int {
	if w.read == opBatch {
		return 3 // 100 batches of 8 ms at two layers
	}
	return 5
}

// recorder is a reusable http.ResponseWriter that keeps what the handler
// wrote, so the replay can count response bytes.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) reset() {
	clear(r.header)
	r.body.Reset()
	r.status = http.StatusOK
}

// replayer records the spans of one replay.
type replayer struct {
	t0    time.Time
	spans []span
	rec   recorder
	// respBytes and respOps count what the handler wrote.
	respBytes, respOps int64
}

// timed runs fn as one span and returns the span's index.
func (rp *replayer) timed(name string, op, parent int, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	rp.spans = append(rp.spans, span{
		Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(rp.t0).Nanoseconds(), EndNS: end.Sub(rp.t0).Nanoseconds(),
	})
	return len(rp.spans) - 1
}

// child records a span whose duration a lower layer reported itself.
func (rp *replayer) child(name string, op, parent int, ns int64) {
	at := rp.spans[parent].StartNS
	rp.spans = append(rp.spans, span{Name: name, Op: op, Parent: parent, StartNS: at, EndNS: at + ns})
}

// streamHead regenerates the head of the run's stream from a fresh copy
// of the loaded rectangles: the reads of a round and, separately, the
// bulks in order (the caller acks them as it applies them).
type streamHead struct {
	gen   *generator
	reads []op
}

func newStreamHead(w workload, seed int64, d *spatial.Dataset) *streamHead {
	cur := make([]geom.Rect, d.Len())
	for i, e := range d.Entries {
		cur[i] = e.Rect
	}
	h := &streamHead{gen: newGenerator(w, seed, &spatial.Dataset{Entries: d.Entries}, cur)}
	if w.reads == 0 {
		return h
	}
	// Reads never move the harness's copy, so a throw-away generator
	// yields the same windows the run saw.
	for _, o := range newGenerator(w, seed, h.gen.data, cur).nextRound() {
		if o.kind != opBulk {
			o.body = append([]byte(nil), o.body...)
			o.wins = append([]geom.Rect(nil), o.wins...)
			h.reads = append(h.reads, o)
		}
	}
	return h
}

// eachRead calls fn with every read of the round, rounds times over; i is
// the read's position in the round.
func (h *streamHead) eachRead(rounds int, fn func(i int, o *op) error) error {
	for round := 0; round < rounds; round++ {
		for i := range h.reads {
			if err := fn(i, &h.reads[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// bulks calls apply with the next n bulks of the stream, acking each.
func (h *streamHead) bulks(n int, apply func(i int, o *op) error) error {
	for done := 0; done < n; {
		ops := h.gen.nextRound()
		for i := range ops {
			o := &ops[i]
			if o.kind != opBulk || done == n {
				continue
			}
			if err := apply(done, o); err != nil {
				return err
			}
			h.gen.acked(o)
			done++
		}
	}
	return nil
}

func coreMutations(o *op) []core.Mutation {
	muts := make([]core.Mutation, 0, 2*len(o.moves))
	for _, m := range o.moves {
		muts = append(muts,
			core.Mutation{Delete: true, Entry: spatial.Entry{ID: m.id, Rect: m.from}},
			core.Mutation{Entry: spatial.Entry{ID: m.id, Rect: m.to}})
	}
	return muts
}

func publicMutations(o *op) []twolayer.Mutation {
	muts := make([]twolayer.Mutation, 0, 2*len(o.moves))
	for _, m := range o.moves {
		muts = append(muts,
			twolayer.Mutation{Delete: true, ID: m.id, MBR: m.from},
			twolayer.Mutation{ID: m.id, MBR: m.to})
	}
	return muts
}

func allFound(res core.ApplyResult, err error) error {
	if err != nil {
		return err
	}
	for i, f := range res.Found {
		if !f {
			return fmt.Errorf("replayed mutation %d: delete found nothing", i)
		}
	}
	return nil
}

// serverConfig mirrors the flags the benchmarked process runs with.
func serverConfig() server.Config {
	return server.Config{
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})),
		CollectStats: true,
	}
}

// handle replays one request through the server's handler in process,
// as the span server.handle of operation opID, and returns the span.
func (rp *replayer) handle(h http.Handler, opID int, o *op) (int, error) {
	req := httptest.NewRequest("POST", pathOf(o.kind), bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rp.rec.reset()
	sp := rp.timed("server.handle", opID, -1, func() { h.ServeHTTP(&rp.rec, req) })
	if rp.rec.status != http.StatusOK {
		return sp, fmt.Errorf("in-process %s: status %d: %s", pathOf(o.kind), rp.rec.status, truncate(rp.rec.body.Bytes(), 200))
	}
	rp.respBytes += int64(rp.rec.body.Len())
	rp.respOps++
	return sp, nil
}

// replay fills the numbers that come from timing the layers' public
// calls and returns the spans it recorded.
func replay(r *runner, t *layerTable) ([]span, error) {
	w := r.cfg.w.sized(r.cfg.smoke)
	rp := &replayer{t0: r.t0, rec: recorder{header: make(http.Header)}}
	opts := twolayer.Options{Decompose: true}

	var d *spatial.Dataset
	var err error
	rp.timed("dataio.parse", 0, -1, func() {
		var f *os.File
		if f, err = os.Open(r.csv); err != nil {
			return
		}
		defer f.Close()
		d, err = dataio.ReadDataset(f)
	})
	if err != nil {
		return nil, err
	}
	t.set("dataio.parse_s", rp.seconds("dataio.parse"))

	head := newStreamHead(w, r.cfg.seed, d)

	switch w.name {
	case "window_serve", "batch_scan":
		var idx *twolayer.Index
		rp.timed("core.build", 0, -1, func() { idx = twolayer.BuildGeoms(d.Geoms, opts) })
		t.set("core.build_s", rp.seconds("core.build"))
		cfg := serverConfig()
		cfg.Index = idx
		h := server.New(cfg).Handler()
		view := idx.ReadView()
		err = head.eachRead(replayRounds(w), func(i int, o *op) error {
			parent, err := rp.handle(h, i, o)
			if err != nil {
				return err
			}
			rp.timed("core.query", i, parent, func() {
				if o.kind == opBatch {
					view.BatchWindowCounts(o.wins, twolayer.QueriesBased, runtime.NumCPU())
					return
				}
				n := 0
				_, err = view.Search(twolayer.Query{Window: &o.wins[0], Limit: resultLimit},
					func(twolayer.ID, twolayer.Rect) bool { n++; return true })
			})
			return err
		})
		if err != nil {
			return nil, err
		}

	case "mixed_rw":
		var sh *twolayer.Sharded
		rp.timed("shard.build", 0, -1, func() {
			sh = twolayer.BuildShardedGeoms(d.Geoms, opts, twolayer.ShardedOptions{Shards: 2})
		})
		t.set("shard.build_s", rp.seconds("shard.build"))
		lv := twolayer.ShardedLiveFrom(sh, twolayer.LiveOptions{})
		defer lv.Close()
		cfg := serverConfig()
		cfg.ShardedLive = lv
		h := server.New(cfg).Handler()
		err = head.eachRead(replayRounds(w), func(i int, o *op) error {
			q := twolayer.Query{Window: &o.wins[0]}
			handleSpan, err := rp.handle(h, i, o)
			if err != nil {
				return err
			}
			snap := lv.Snapshot()
			searchSpan := rp.timed("shard.search", i, handleSpan, func() { _, err = snap.SearchCount(q) })
			if err != nil {
				return err
			}
			// The slowest shard's own time comes from the engine's
			// per-shard spans, taken on a second, traced call.
			tv := snap.Traced()
			if _, err := tv.SearchCount(q); err != nil {
				return err
			}
			var slowest int64
			for _, s := range tv.Spans {
				slowest = max(slowest, s.ElapsedUS*1000)
			}
			rp.child("core.query", i, searchSpan, slowest)
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = head.bulks(replayWrites, func(k int, o *op) error {
			muts := publicMutations(o)
			var aerr error
			rp.timed("shard.apply", len(head.reads)+k%replayBlock, -1, func() { aerr = allFound(lv.Apply(muts)) })
			return aerr
		})
		if err != nil {
			return nil, err
		}

	case "durable_ingest":
		if err := replayDurable(r, rp, t, d, head); err != nil {
			return nil, err
		}
	}

	quiet := quietSpans(rp.spans)
	self := medianByName(quiet, selfTimes(quiet))
	total := medianByName(quiet, durations(quiet))
	t.set("server.handle_us", total["server.handle"])
	t.set("server.self_us", self["server.handle"])
	t.set("shard.search_us", total["shard.search"])
	t.set("shard.self_us", self["shard.search"])
	t.set("shard.apply_us", total["shard.apply"])
	t.set("core.query_us", total["core.query"])
	t.set("core.apply_us", total["core.apply"])
	t.set("core.clone_us", total["core.clone"])
	t.set("wal.apply_us", total["wal.apply"])
	t.set("wal.self_us", self["wal.apply"])
	t.set("server.resp_bytes_op", ratio(float64(rp.respBytes), float64(rp.respOps)))
	return rp.spans, nil
}

// replayDurable times the write path of durable_ingest layer by layer:
// the clone and core.Live.Apply on a freshly built index, the same
// apply under the write-ahead log, the server's handler over that, and
// wal.Open on the directory the killed server left.
func replayDurable(r *runner, rp *replayer, t *layerTable, d *spatial.Dataset, head *streamHead) error {
	g := core.SuggestGridSize(d.Len())
	var cix *core.Index
	rp.timed("core.build", 0, -1, func() { cix = core.Build(d, core.Options{NX: g, NY: g, Decompose: true}) })
	t.set("core.build_s", rp.seconds("core.build"))
	for i := 0; i < replayClones; i++ {
		rp.timed("core.clone", 0, -1, func() { cix.CloneCOW() })
	}

	// The k-th bulk of each stretch stands for the same operation seen
	// at three depths, so its spans are chained once all three exist;
	// every replayBlock-th bulk is a further round of that operation.
	var coreSpans, walSpans, handleSpans []int
	lv := core.NewLive(cix, core.LiveOptions{})
	err := head.bulks(replayWrites, func(k int, o *op) error {
		muts := coreMutations(o)
		var aerr error
		coreSpans = append(coreSpans, rp.timed("core.apply", k%replayBlock, -1, func() { aerr = allFound(lv.Apply(muts)) }))
		return aerr
	})
	lv.Close()
	if err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	walOpts := wal.Options{
		Dir:  filepath.Join(r.dir, "replay-wal"),
		Seed: lv.Snapshot(), Policy: wal.SyncInterval, CheckpointEvery: -1, Logger: logger,
	}
	dl, _, err := wal.Open(walOpts)
	if err != nil {
		return err
	}
	err = head.bulks(replayWrites, func(k int, o *op) error {
		muts := coreMutations(o)
		var aerr error
		walSpans = append(walSpans, rp.timed("wal.apply", k%replayBlock, -1, func() { aerr = allFound(dl.Live().Apply(muts)) }))
		return aerr
	})
	if cerr := dl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// The handler needs the public wrapper types, so it gets an index of
	// its own, brought to the stream's current state by recovery from
	// the replay's log.
	pub, _, err := twolayer.OpenDurable(twolayer.Options{Decompose: true}, twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: walOpts.Dir, Fsync: wal.SyncInterval, CheckpointEvery: -1, Logger: logger})
	if err != nil {
		return err
	}
	cfg := serverConfig()
	cfg.Durable = pub
	h := server.New(cfg).Handler()
	err = head.bulks(replayWrites, func(k int, o *op) error {
		sp, herr := rp.handle(h, k%replayBlock, o)
		handleSpans = append(handleSpans, sp)
		if herr == nil {
			_, herr = checkBulk(o, rp.rec.body.Bytes())
		}
		return herr
	})
	if cerr := pub.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for k := range handleSpans {
		rp.spans[walSpans[k]].Parent = handleSpans[k]
		rp.spans[coreSpans[k]].Parent = walSpans[k]
	}

	var rerr error
	rp.timed("wal.recover", 0, -1, func() {
		var rec *wal.DurableLive
		if rec, _, rerr = wal.Open(wal.Options{Dir: r.dataDir, Policy: wal.SyncInterval, CheckpointEvery: -1, Logger: logger}); rerr == nil {
			rerr = rec.Close()
		}
	})
	t.set("wal.recover_s", rp.seconds("wal.recover"))
	return rerr
}

// seconds returns the duration of the first span with the given name.
func (rp *replayer) seconds(name string) float64 {
	for _, s := range rp.spans {
		if s.Name == name {
			return float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return 0
}

func durations(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNS - s.StartNS
	}
	return out
}
