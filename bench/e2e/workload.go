package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strconv"

	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

type opKind uint8

const (
	opWindow opKind = iota // POST /v1/window, results with MBRs
	opCount                // POST /v1/window, count_only
	opBatch                // POST /v1/batch, mode queries
	opBulk                 // POST /v1/bulk of moves
)

// move relocates one object: a delete at from and an insert at to.
type move struct {
	id       spatial.ID
	from, to geom.Rect
}

// op is one pre-encoded request and what the harness needs to check its
// answer.
type op struct {
	kind opKind
	req  []byte // the whole HTTP request
	body []byte // its body, for the in-process replay
	// reqLen and bodyLen stand in for req and body while the round's
	// arena is still growing.
	reqLen, bodyLen int
	wins            []geom.Rect
	moves           []move
	// check marks the reads whose answer is compared with a naive scan.
	check bool
}

// workload is one traffic mix against one server topology.
type workload struct {
	name string
	why  string
	// flags are the server flags beyond -data, -addr and -log-level.
	flags   []string
	durable bool
	// timed is the kind of operation whose latencies are p50_us/p95_us.
	timed opKind
	// admitClass is the admission class the timed operation runs in.
	admitClass string
	// endpoint is the /metrics endpoint label of the timed operation.
	endpoint string
	// One round is cycles repetitions of (reads of kind read, then
	// writes bulks). Every round issues the same reads; its bulks move
	// objects drawn afresh, from where the acknowledged bulks left them.
	read      opKind
	cycles    int
	reads     int
	writes    int
	extent    float64
	batchSize int
}

const (
	movesPerBulk = 32
	maxMoveDist  = 0.001
	checkEvery   = 50 // every 50th read is compared with a naive scan
	batchChecked = 16 // windows of a checked batch that are scanned
	hashedRounds = 3  // rounds covered by the stream hash
)

var workloads = []workload{
	{
		name: "window_serve",
		why: "static unsharded server, one window of extent 0.01 per request: envelope decode, admission and " +
			"result encode in internal/server and loopback transport share the latency, the core filter is 3%",
		timed: opWindow, admitClass: "read", endpoint: "v1/window",
		read: opWindow, cycles: 1000, reads: 1, extent: 0.01,
	},
	{
		name: "batch_scan",
		why: "static unsharded server, 1000 windows per /v1/batch request in queries mode: the two-layer filter " +
			"kernel dominates and transport vanishes, so tile-layout and kernel work shows here and nowhere else",
		timed: opBatch, admitClass: "batch", endpoint: "v1/batch",
		read: opBatch, cycles: 100, reads: 1, extent: 0.005, batchSize: 1000,
	},
	{
		name: "mixed_rw",
		why: "-shards 2 -live, 20 count_only windows of extent 0.02 then one bulk of 32 moves: shard fan-out and " +
			"count pushdown on reads beside copy-on-write publishes that invalidate the count table on writes",
		flags: []string{"-shards", "2", "-live"},
		timed: opCount, admitClass: "read", endpoint: "v1/window",
		read: opCount, cycles: 16, reads: 20, writes: 1, extent: 0.02,
	},
	{
		name: "durable_ingest",
		why: "unsharded -data-dir with -fsync interval and no automatic checkpoints, bulks of 32 moves: journal, " +
			"copy-on-write clone, apply and publish are all of the latency; then checkpoint, SIGKILL and recovery",
		flags:   []string{"-fsync", "interval", "-checkpoint-every", "-1"},
		durable: true,
		timed:   opBulk, admitClass: "mutate", endpoint: "v1/bulk",
		cycles: 16, writes: 1,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sized returns the workload at smoke size: the same shapes, small
// enough that all four run in seconds.
func (w workload) sized(smoke bool) workload {
	if !smoke {
		return w
	}
	w.cycles = max(w.cycles/8, 4)
	if w.batchSize > 0 {
		w.batchSize = 100
	}
	return w
}

// generator produces a workload's operation stream round by round. The
// stream is a function of (seed, workload, round number) and of the
// acknowledged moves before it, nothing else.
type generator struct {
	w     workload
	seed  int64
	trace bool
	data  *spatial.Dataset // the generated dataset: query centres
	cur   []geom.Rect      // the harness's copy, moved as bulks are acked
	// prev is the MBR each moved object last left; lastMoved lists the
	// objects moved by the acknowledged bulks of the newest round.
	prev      map[spatial.ID]geom.Rect
	lastMoved []spatial.ID

	next    int
	readSeq int
	// encodedTrace is the trace setting the kept ops were encoded with.
	encodedTrace bool
	arena        []byte
	ops          []op
	rects        []geom.Rect
	moves        []move
	sum          hash.Hash
	hash         string
}

func newGenerator(w workload, seed int64, data *spatial.Dataset, cur []geom.Rect) *generator {
	return &generator{
		w: w, seed: seed, data: data, cur: cur,
		prev: make(map[spatial.ID]geom.Rect),
		sum:  sha256.New(),
	}
}

// streamSeed mixes the run seed, a stream's name and a round number
// (splitmix64 finalizer), so rounds are independent streams.
func streamSeed(seed int64, name string, round int) int64 {
	x := uint64(seed)
	for _, c := range []byte(name) {
		x = x*1099511628211 + uint64(c)
	}
	x += uint64(round+1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// nextRound generates the next round's operations. The returned slice
// and everything it points to are reused by the following call.
func (g *generator) nextRound() []op {
	w := g.w
	if w.writes == 0 && g.next >= hashedRounds && g.encodedTrace == g.trace {
		// Nothing but the check marks changes from round to round.
		for i := range g.ops {
			g.ops[i].check = g.readSeq%checkEvery == 0
			g.readSeq++
		}
		g.next++
		return g.ops
	}
	nWins := w.cycles * w.reads
	if w.read == opBatch {
		nWins *= w.batchSize
	}
	if g.rects == nil && nWins > 0 {
		g.rects = datagen.Windows(g.data, datagen.QuerySpec{
			N: nWins, RelExtent: w.extent, Seed: streamSeed(g.seed, w.name+"/reads", 0)})
	}
	rnd := rand.New(rand.NewSource(streamSeed(g.seed, w.name+"/moves", g.next)))
	nMoves := w.cycles * w.writes * movesPerBulk
	if cap(g.moves) < nMoves {
		g.moves = make([]move, nMoves)
	}
	g.moves = g.moves[:nMoves]
	if nMoves > 0 {
		g.lastMoved = g.lastMoved[:0]
	}
	// An object moves at most once per round, so every delete names the
	// MBR the object has when the round starts.
	used := make(map[spatial.ID]struct{}, nMoves)
	for i := range g.moves {
		var id spatial.ID
		for {
			id = spatial.ID(rnd.Intn(len(g.cur)))
			if _, dup := used[id]; !dup {
				break
			}
		}
		used[id] = struct{}{}
		g.moves[i] = move{id: id, from: g.cur[id], to: shifted(g.cur[id], rnd)}
	}

	g.ops = g.ops[:0]
	g.arena = g.arena[:0]
	var body []byte
	wi, mi := 0, 0
	for c := 0; c < w.cycles; c++ {
		for r := 0; r < w.reads; r++ {
			o := op{kind: w.read, check: g.readSeq%checkEvery == 0}
			g.readSeq++
			switch w.read {
			case opBatch:
				o.wins = g.rects[wi : wi+w.batchSize]
				wi += w.batchSize
				body = appendBatchBody(body[:0], o.wins)
			default:
				o.wins = g.rects[wi : wi+1]
				wi++
				body = appendWindowBody(body[:0], o.wins[0], w.read == opCount)
			}
			g.push(o, pathOf(w.read), body)
		}
		for b := 0; b < w.writes; b++ {
			o := op{kind: opBulk, moves: g.moves[mi : mi+movesPerBulk]}
			mi += movesPerBulk
			body = appendBulkBody(body[:0], o.moves)
			g.push(o, pathOf(opBulk), body)
		}
	}
	off := 0
	for i := range g.ops {
		o := &g.ops[i]
		o.req = g.arena[off : off+o.reqLen : off+o.reqLen]
		o.body = o.req[o.reqLen-o.bodyLen:]
		off += o.reqLen
	}
	g.encodedTrace = g.trace
	if g.next < hashedRounds {
		g.sum.Write(g.arena)
		g.hash = hex.EncodeToString(g.sum.Sum(nil))[:16]
	}
	g.next++
	return g.ops
}

func (g *generator) push(o op, path string, body []byte) {
	start := len(g.arena)
	g.arena = encodeRequest(g.arena, "POST", path, body, g.trace && o.kind != opBulk)
	o.reqLen, o.bodyLen = len(g.arena)-start, len(body)
	g.ops = append(g.ops, o)
}

// acked records that the server acknowledged a bulk: the harness's copy
// moves with it.
func (g *generator) acked(o *op) {
	for _, m := range o.moves {
		g.prev[m.id] = m.from
		g.cur[m.id] = m.to
		g.lastMoved = append(g.lastMoved, m.id)
	}
}

func pathOf(k opKind) string {
	switch k {
	case opBatch:
		return "/v1/batch"
	case opBulk:
		return "/v1/bulk"
	default:
		return "/v1/window"
	}
}

// shifted moves r by a seeded offset of at most maxMoveDist per axis,
// reflected where it would leave the unit square.
func shifted(r geom.Rect, rnd *rand.Rand) geom.Rect {
	dx := (rnd.Float64()*2 - 1) * maxMoveDist
	dy := (rnd.Float64()*2 - 1) * maxMoveDist
	if r.MinX+dx < 0 || r.MaxX+dx > 1 {
		dx = -dx
	}
	if r.MinY+dy < 0 || r.MaxY+dy > 1 {
		dy = -dy
	}
	return geom.Rect{MinX: r.MinX + dx, MinY: r.MinY + dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
}

func appendRect(dst []byte, r geom.Rect) []byte {
	dst = append(dst, `{"min_x":`...)
	dst = strconv.AppendFloat(dst, r.MinX, 'g', -1, 64)
	dst = append(dst, `,"min_y":`...)
	dst = strconv.AppendFloat(dst, r.MinY, 'g', -1, 64)
	dst = append(dst, `,"max_x":`...)
	dst = strconv.AppendFloat(dst, r.MaxX, 'g', -1, 64)
	dst = append(dst, `,"max_y":`...)
	dst = strconv.AppendFloat(dst, r.MaxY, 'g', -1, 64)
	return append(dst, '}')
}

func appendWindowBody(dst []byte, w geom.Rect, countOnly bool) []byte {
	dst = append(dst, `{"window":`...)
	dst = appendRect(dst, w)
	if countOnly {
		dst = append(dst, `,"count_only":true`...)
	}
	return append(dst, '}')
}

func appendBatchBody(dst []byte, wins []geom.Rect) []byte {
	dst = append(dst, `{"mode":"queries","windows":[`...)
	for i, w := range wins {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRect(dst, w)
	}
	return append(dst, `]}`...)
}

func appendBulkBody(dst []byte, moves []move) []byte {
	dst = append(dst, `{"mutations":[`...)
	for i, m := range moves {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"op":"delete","id":`...)
		dst = strconv.AppendUint(dst, uint64(m.id), 10)
		dst = append(dst, `,"mbr":`...)
		dst = appendRect(dst, m.from)
		dst = append(dst, `},{"op":"insert","id":`...)
		dst = strconv.AppendUint(dst, uint64(m.id), 10)
		dst = append(dst, `,"mbr":`...)
		dst = appendRect(dst, m.to)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// hashRects is the dataset hash of the environment block.
func hashRects(rects []geom.Rect) string {
	h := sha256.New()
	var buf [32]byte
	for _, r := range rects {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.MinX))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MinY))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MaxX))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.MaxY))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
