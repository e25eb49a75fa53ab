package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/dataio"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	bin     string // the built spatialserver
	outDir  string // bench/out
	logf    func(format string, args ...any)
}

const (
	fullObjects  = 1_000_000
	smokeObjects = 20_000
	// datasetSeed is fixed: the dataset is the benchmark's fixture, the
	// run's seed draws the operations against it. Datasets of different
	// seeds differ in how many objects a window of one extent holds (their
	// cluster models differ), which moved ops_s by 40% from seed to seed;
	// streams of different seeds over one dataset do not.
	datasetSeed = 1
	coldStarts  = 3 // setup_s and recovery_s are the median of this many
	// warmSeconds of whole rounds run before the measured ones.
	warmSeconds = 1.5
	minRounds   = 6 // measured rounds a pass has at least
	verifyExtra = 512
	// tailBulks are journaled after the checkpoint and replayed by every
	// recovery of durable_ingest.
	tailBulks = 32
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envBlock says where and on what a result was measured.
type envBlock struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"git_revision"`
	Kernel      string `json:"kernel"`
	Seed        int64  `json:"seed"`
	Objects     int    `json:"objects"`
	DatasetHash string `json:"dataset_sha256_16"`
	StreamHash  string `json:"stream_sha256_16"`
	ServerFlags string `json:"server_flags"`
	// MemWalkMS is how long the harness took to read 256 MB of its own
	// memory, just before the untraced pass and just after it. On the
	// host this was written on it reads 16-19 ms when the host is quiet
	// and 26 ms or more while a neighbour uses the memory bus; every time
	// the benchmark reports then reads 10-40% worse.
	MemWalkMS []float64 `json:"host_mem_walk_ms"`
}

// result is what one run reports; it is also the result file.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Env       envBlock          `json:"env"`
	// RoundS are the measured rounds' elapsed times and RawOpsPerSec the
	// throughput they delivered as they ran: a reader sees from their
	// scatter, and from how far ops_s lies above the raw figure, how
	// quiet the host was.
	RoundS       []float64 `json:"round_elapsed_s"`
	RawOpsPerSec float64   `json:"raw_ops_s"`
	// Samples is how many timed operations a round has; LatencyUS is the
	// distribution of their quiet latencies.
	Samples   int                `json:"latency_samples"`
	LatencyUS map[string]float64 `json:"latency_us"`
	SetupS    []float64          `json:"setup_s_each"`
	RecoveryS []float64          `json:"recovery_s_each"`
	Notes     []string           `json:"notes,omitempty"`
}

// pass is a run of rounds against the running server.
type pass struct {
	traced bool
	// best is, per position of the block, the fastest completed latency
	// (ns) over the measured rounds; timed marks the positions of the
	// workload's timed operation.
	best  []int64
	timed []bool
	// roundS are the measured rounds' elapsed times, checks off the clock;
	// done counts the operations they completed.
	roundS    []float64
	done      int
	attempted int
	failed    int
	errs      []error
	// server-side deltas over the measured rounds
	metrics map[string]float64
	cpuS    float64
	// fields of the responses, traced pass only
	evalUS, filterUS []int64
	spans            []span
	opSeq            int
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// rawOpsPerSec is what the measured rounds delivered as they ran,
// disturbed or not.
func (p *pass) rawOpsPerSec() float64 {
	var elapsed float64
	for _, s := range p.roundS {
		elapsed += s
	}
	return ratio(float64(p.done), elapsed)
}

// runner holds the state of one run.
type runner struct {
	cfg  runConfig
	dir  string // the run's scratch directory under outDir
	csv  string
	data *spatial.Dataset // entries only: query centres
	gen  *generator
	srv  *serverProc
	// dataDir is the serving server's -data-dir, durable workloads only.
	dataDir string
	c       *client
	rnd     *rand.Rand // picks the windows of a checked batch
	t0      time.Time
}

func (r *runner) objects() int {
	if r.cfg.smoke {
		return smokeObjects
	}
	return fullObjects
}

// prepare generates the dataset, writes the CSV the server loads and
// keeps the harness's own copy of the rectangles.
func (r *runner) prepare() (datasetHash string, err error) {
	r.dir, err = os.MkdirTemp(r.cfg.outDir, "run-")
	if err != nil {
		return "", err
	}
	d := datagen.RealLikeDataset(datagen.Roads, r.objects(), datasetSeed)
	r.csv = filepath.Join(r.dir, "roads.csv")
	f, err := os.Create(r.csv)
	if err != nil {
		return "", err
	}
	if err := dataio.WriteDataset(f, d); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", r.csv, err)
	}
	// Flushed now, the file's write-back does not run beside the server
	// while it is measured.
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	cur := make([]geom.Rect, d.Len())
	for i, e := range d.Entries {
		cur[i] = e.Rect
	}
	// Only the MBRs are needed from here on; the geometries are garbage
	// the collector should take before the clock starts.
	r.data = &spatial.Dataset{Entries: d.Entries}
	r.gen = newGenerator(r.cfg.w.sized(r.cfg.smoke), r.cfg.seed, r.data, cur)
	r.rnd = rand.New(rand.NewSource(streamSeed(r.cfg.seed, "check", 0)))
	return hashRects(cur), nil
}

func (r *runner) cleanup() {
	if r.c != nil {
		r.c.close()
	}
	if r.srv != nil {
		r.srv.kill()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *runner) serverFlags(dataDir string) []string {
	flags := append([]string{"-data", r.csv}, r.cfg.w.flags...)
	if r.cfg.w.durable {
		flags = append(flags, "-data-dir", dataDir)
	}
	return flags
}

// starts is how many cold starts, and how many recoveries, the run times.
func (r *runner) starts() int {
	switch {
	case r.cfg.trace:
		return 1 // a traced run reports neither set-up nor recovery time
	case r.cfg.smoke:
		return 2
	}
	return coldStarts
}

func (r *runner) walDir(i int) string { return filepath.Join(r.dir, fmt.Sprintf("wal-%d", i)) }

// coldStart starts the server n times from nothing. Every start but the
// last is ended with SIGKILL; the last one is left serving. On a server
// without a data directory SIGKILL → restart → first 200 is the whole
// of its recovery, so those times are returned as well.
func (r *runner) coldStart(n int) (setups, recoveries []float64, err error) {
	var killedAt time.Time
	for i := 0; i < n; i++ {
		srv, err := startServer(r.cfg.bin, r.serverFlags(r.walDir(i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.readyIn.Seconds())
		if i > 0 && !r.cfg.w.durable {
			recoveries = append(recoveries, srv.readyAt.Sub(killedAt).Seconds())
		}
		if i == n-1 {
			r.srv, r.dataDir = srv, r.walDir(i)
			break
		}
		killedAt = srv.kill()
		if r.cfg.w.durable {
			os.RemoveAll(r.walDir(i))
		}
	}
	return setups, recoveries, nil
}

// fastest is the smallest of vals, 0 for none.
func fastest(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}

// memWalk times a read of every cache line of a 64 MB buffer, four times
// over: a probe of the memory bandwidth the host leaves this VM.
func memWalk(buf []uint64) float64 {
	start := time.Now()
	var sum uint64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < len(buf); i += 8 {
			sum += buf[i]
		}
	}
	buf[0] = sum // keeps the loop
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// scrape reads the server's /metrics and CPU time.
func (r *runner) scrape() (map[string]float64, float64, error) {
	status, body, err := r.c.get("/metrics")
	if err := expect200("GET /metrics", status, body, err); err != nil {
		return nil, 0, err
	}
	m, err := parseMetrics(bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	cpu, err := r.srv.cpuSeconds()
	return m, cpu, err
}

// runPass drives whole unmeasured rounds for warm seconds (one at least)
// and then measured ones until seconds have passed and at least
// minMeasured are in.
func (r *runner) runPass(warm float64, minMeasured int, seconds float64, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	r.gen.trace = traced
	for begun := time.Now(); ; {
		r.runRound(r.gen.nextRound(), p, false)
		if time.Since(begun).Seconds() >= warm {
			break
		}
	}
	before, cpuBefore, err := r.scrape()
	if err != nil {
		return nil, err
	}
	for started := time.Now(); ; {
		ops := r.gen.nextRound()
		wallStart := time.Now()
		r.runRound(ops, p, true)
		// Stop at the round boundary nearest to the asked-for time.
		if len(p.roundS) >= minMeasured && (time.Since(started)+time.Since(wallStart)/2).Seconds() >= seconds {
			break
		}
	}
	after, cpuAfter, err := r.scrape()
	if err != nil {
		return nil, err
	}
	p.metrics = metricsDelta(before, after)
	// Gauges are read as they stand at the end, not as differences.
	for _, k := range []string{"twolayer_index_memory_bytes", "twolayer_index_objects"} {
		p.metrics[k] = after[k]
	}
	p.cpuS = cpuAfter - cpuBefore
	return p, nil
}

// runRound sends one round's operations back to back and, when the round
// is measured, keeps each position's fastest latency. Time spent looking
// at answers is taken off the round's clock.
func (r *runner) runRound(ops []op, p *pass, measured bool) {
	if measured && p.best == nil {
		p.best = make([]int64, len(ops))
		p.timed = make([]bool, len(ops))
		for i := range ops {
			p.timed[i] = ops[i].kind == r.gen.w.timed
		}
	}
	var paused time.Duration
	start := time.Now()
	for i := range ops {
		o := &ops[i]
		p.attempted++
		p.opSeq++
		t0 := time.Now()
		status, body, err := r.c.do(o.req)
		t1 := time.Now()
		if err := expect200(pathOf(o.kind), status, body, err); err != nil {
			p.fail(err)
			continue
		}
		if o.kind == opBulk {
			// The server has applied the bulk whatever its flags say.
			r.gen.acked(o)
		}
		if p.traced && measured {
			p.spans = append(p.spans, span{
				Name: "client.request", Parent: -1, Op: p.opSeq,
				StartNS: t0.Sub(r.t0).Nanoseconds(), EndNS: t1.Sub(r.t0).Nanoseconds(),
			})
		}
		if err := r.checkAnswer(o, body, p, measured); err != nil {
			p.fail(err)
			continue
		}
		paused += time.Since(t1)
		if measured {
			p.done++
			if lat := t1.Sub(t0).Nanoseconds(); p.best[i] == 0 || lat < p.best[i] {
				p.best[i] = lat
			}
		}
	}
	if measured {
		p.roundS = append(p.roundS, (time.Since(start) - paused).Seconds())
	}
}

// checkAnswer validates one 200 response. Every answer must have the
// shape of its endpoint; the marked reads are compared with a naive scan
// over the harness's copy, and a traced pass keeps the timing fields.
func (r *runner) checkAnswer(o *op, body []byte, p *pass, measured bool) error {
	cur := r.gen.cur
	switch o.kind {
	case opBulk:
		elapsedUS, err := checkBulk(o, body)
		if p.traced && measured && o.kind == r.gen.w.timed {
			p.evalUS = append(p.evalUS, elapsedUS)
		}
		return err
	case opBatch:
		if !o.check && !p.traced {
			if !bytes.HasPrefix(body, []byte(`{"counts":[`)) {
				return fmt.Errorf("batch response: unexpected body %s", truncate(body, 80))
			}
			return nil
		}
		var resp batchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("batch response: %w", err)
		}
		if p.traced && measured {
			p.evalUS = append(p.evalUS, resp.ElapsedUS)
		}
		if o.check {
			return checkBatch(cur, o.wins, &resp, r.rnd)
		}
		if len(resp.Counts) != len(o.wins) {
			return fmt.Errorf("batch of %d windows answered with %d counts", len(o.wins), len(resp.Counts))
		}
		return nil
	default:
		if !o.check && !p.traced {
			if !bytes.HasPrefix(body, []byte(`{"count":`)) {
				return fmt.Errorf("window response: unexpected body %s", truncate(body, 80))
			}
			return nil
		}
		var resp rangeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("window response: %w", err)
		}
		if p.traced && measured {
			p.evalUS = append(p.evalUS, resp.ElapsedUS)
			if resp.Trace == nil {
				return fmt.Errorf("window response: X-Trace: 1 sent, no trace came back")
			}
			// A sharded trace has per-shard spans in place of the core's
			// filter time; the slowest shard is what the query waited for.
			filterUS := resp.Trace.FilterUS
			for _, s := range resp.Trace.Shards {
				filterUS = max(filterUS, s.ElapsedUS)
			}
			p.filterUS = append(p.filterUS, filterUS)
		}
		if !o.check {
			return nil
		}
		if o.kind == opCount {
			if want := naiveCounts(cur, o.wins)[0]; resp.Count != want {
				return fmt.Errorf("count_only window %v: count %d, naive scan finds %d", o.wins[0], resp.Count, want)
			}
			return nil
		}
		return checkWindow(cur, o.wins[0], &resp)
	}
}

// durableTail is what durable_ingest does after its measured intervals:
// a timed checkpoint, tailBulks more bulks as a log tail, SIGKILL
// and timed recoveries on the same directory, as many as cold starts. The last
// recovered server is left serving for the final verification.
func (r *runner) durableTail(p *pass) (ckptS float64, ckptBytes int64, recoveries []float64, err error) {
	dir := r.dataDir
	t0 := time.Now()
	status, body, derr := r.c.do(encodeRequest(nil, "POST", "/v1/checkpoint", nil, false))
	ckptS = time.Since(t0).Seconds()
	p.attempted++
	if err := expect200("POST /v1/checkpoint", status, body, derr); err != nil {
		p.fail(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	for _, path := range ckpts {
		if st, err := os.Stat(path); err == nil {
			ckptBytes = max(ckptBytes, st.Size())
		}
	}
	r.gen.trace = false
	tail := r.gen.nextRound()
	r.runRound(tail[:min(tailBulks, len(tail))], p, false)

	flags := append([]string{"-data-dir", dir}, r.cfg.w.flags...)
	for i := 0; i < r.starts(); i++ {
		killedAt := r.srv.kill()
		r.c.close()
		srv, err := startServer(r.cfg.bin, flags)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		r.srv = srv
		r.c = newClient(srv.addr)
		recoveries = append(recoveries, srv.readyAt.Sub(killedAt).Seconds())
	}
	return ckptS, ckptBytes, recoveries, nil
}

// run executes the configured run and returns its result. A result with
// failed operations is still returned; err is for runs that could not
// be made at all.
func run(cfg runConfig) (res *result, err error) {
	r := &runner{cfg: cfg, t0: time.Now()}
	defer r.cleanup()
	w := cfg.w
	res = &result{Workload: w.name, Traced: cfg.trace, Metrics: map[string]metric{}}

	datasetHash, err := r.prepare()
	if err != nil {
		return nil, err
	}
	cfg.logf("%s: dataset of %d objects ready after %.1fs", w.name, r.objects(), time.Since(r.t0).Seconds())

	// The harness must not compete with the server for the two cores:
	// drop the generator's garbage now and collect rarely while the
	// server is driven.
	runtime.GC()
	debug.FreeOSMemory()
	gcPercent := debug.SetGCPercent(800)
	defer debug.SetGCPercent(gcPercent)

	setups, recoveries, err := r.coldStart(r.starts())
	if err != nil {
		return nil, err
	}
	r.c = newClient(r.srv.addr)
	cfg.logf("%s: server up, setup %.3fs", w.name, fastest(setups))

	warm, least, seconds := warmSeconds, minRounds, cfg.seconds
	if cfg.smoke {
		warm, least, seconds = 0, 2, 0
	}
	if cfg.trace {
		seconds /= 2
		least = (least + 1) / 2
	}
	probe := make([]uint64, 64<<20/8)
	for i := range probe {
		probe[i] = uint64(i)
	}
	memWalkMS := []float64{memWalk(probe)}
	plain, err := r.runPass(warm, least, seconds, false)
	if err != nil {
		return nil, err
	}
	memWalkMS = append(memWalkMS, memWalk(probe))
	rss, err := r.srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	passes := []*pass{plain}
	var traced *pass
	if cfg.trace {
		if traced, err = r.runPass(0, least, seconds, true); err != nil {
			return nil, err
		}
		passes = append(passes, traced)
	}

	var ckptS float64
	var ckptBytes int64
	if w.durable {
		if ckptS, ckptBytes, recoveries, err = r.durableTail(plain); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "durability is checked against a process crash only: "+
			"SIGKILL leaves the operating system's cache intact, so unflushed log writes survive it")
	}
	if w.writes > 0 {
		n, errs := verifyState(r.c, r.gen, verifySample(r.gen, verifyExtra))
		plain.attempted += n
		for _, e := range errs {
			plain.fail(e)
		}
	}
	r.c.close()
	r.srv.kill()

	sum := summarize(plain.best, plain.timed)
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, e := range p.errs {
			res.Errors = append(res.Errors, e.Error())
		}
	}
	res.Correct = res.Failed == 0
	res.RoundS, res.RawOpsPerSec = plain.roundS, plain.rawOpsPerSec()
	res.Samples, res.LatencyUS = sum.Samples, sum.Shape
	res.SetupS, res.RecoveryS = setups, recoveries
	res.Env = environment(cfg, r.objects(), datasetHash, r.gen.hash, r.serverFlags("<dir>"))
	res.Env.MemWalkMS = memWalkMS

	if !cfg.trace {
		res.Metrics["setup_s"] = metric{fastest(setups), "s"}
		res.Metrics["ops_s"] = metric{sum.OpsPerSec, "1/s"}
		res.Metrics["p50_us"] = metric{sum.P50US, "us"}
		res.Metrics["p95_us"] = metric{sum.P95US, "us"}
		res.Metrics["rss_peak_mb"] = metric{rss, "MB"}
		res.Metrics["recovery_s"] = metric{fastest(recoveries), "s"}
		return res, nil
	}

	// The traced run: layer numbers from the server's own counters, the
	// traced responses and an in-process replay of the stream's head.
	layers := newLayerTable()
	layers.fromCounters(w, plain)
	layers.fromTrace(traced)
	tsum := summarize(traced.best, traced.timed)
	layers.set("trace.overhead_frac", ratio(sum.OpsPerSec-tsum.OpsPerSec, sum.OpsPerSec))
	layers.set("wal.checkpoint_s", ckptS)
	layers.set("wal.checkpoint_bytes", float64(ckptBytes))
	spans := traced.spans
	// The replay runs the layers in this process: it collects as the
	// server does, and the run's own copies make room for the replay's.
	debug.SetGCPercent(gcPercent)
	r.data, r.gen = nil, nil
	replaySpans, err := replay(r, layers)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	spans = append(spans, replaySpans...)
	// What of the untraced client-observed median the in-process handler
	// does not account for is the transport's.
	layers.set("transport.self_us", max(sum.P50US-layers.get("server.handle_us"), 0))
	res.Metrics = layers.metrics()
	res.Notes = append(res.Notes, layers.reconcile(w, sum.P50US)...)
	if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), map[string]any{
		"workload": w.name, "env": res.Env, "spans": spans,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

func environment(cfg runConfig, objects int, datasetHash, streamHash string, flags []string) envBlock {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envBlock{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Revision:    gitRevision(),
		Kernel:      string(bytes.TrimSpace(kernel)),
		Seed:        cfg.seed,
		Objects:     objects,
		DatasetHash: datasetHash,
		StreamHash:  streamHash,
		ServerFlags: fmt.Sprint(flags),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
