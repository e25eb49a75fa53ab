package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

func testGenerator(w workload, seed int64) *generator {
	d := datagen.RealLikeDataset(datagen.Roads, 5000, datasetSeed)
	cur := make([]geom.Rect, d.Len())
	for i, e := range d.Entries {
		cur[i] = e.Rect
	}
	return newGenerator(w.sized(true), seed, &spatial.Dataset{Entries: d.Entries}, cur)
}

// streamDigest runs a generator for n rounds, acking every bulk, and
// hashes every request byte it produced.
func streamDigest(g *generator, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		ops := g.nextRound()
		for j := range ops {
			h.Write(ops[j].req)
			if ops[j].kind == opBulk {
				g.acked(&ops[j])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := testGenerator(w, 7), testGenerator(w, 7), testGenerator(w, 8)
		da, db := streamDigest(a, 5), streamDigest(b, 5)
		if da != db {
			t.Errorf("%s: same seed, different streams: %s vs %s", w.name, da, db)
		}
		if a.hash == "" || a.hash != b.hash {
			t.Errorf("%s: stream hashes %q vs %q", w.name, a.hash, b.hash)
		}
		if streamDigest(other, 5) == da || other.hash == a.hash {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

func TestRoundShape(t *testing.T) {
	for _, w := range workloads {
		g := testGenerator(w, 3)
		sw := g.w
		before := append([]geom.Rect(nil), g.cur...)
		ops := g.nextRound()
		if want := sw.cycles * (sw.reads + sw.writes); len(ops) != want {
			t.Fatalf("%s: round of %d ops, want %d", w.name, len(ops), want)
		}
		moved := make(map[spatial.ID]bool)
		checked := 0
		for i := range ops {
			o := &ops[i]
			if !strings.HasPrefix(string(o.req), "POST "+pathOf(o.kind)+" HTTP/1.1\r\n") || !strings.HasSuffix(string(o.req), string(o.body)) {
				t.Fatalf("%s: op %d: malformed request %q", w.name, i, truncate(o.req, 120))
			}
			var parsed map[string]any
			if err := json.Unmarshal(o.body, &parsed); err != nil {
				t.Fatalf("%s: op %d: body is not JSON: %v", w.name, i, err)
			}
			if o.check {
				checked++
			}
			for _, m := range o.moves {
				if moved[m.id] {
					t.Fatalf("%s: object %d moves twice in one round", w.name, m.id)
				}
				moved[m.id] = true
				if m.from != before[m.id] {
					t.Fatalf("%s: object %d deleted at %v, it is at %v", w.name, m.id, m.from, before[m.id])
				}
				if m.to.MinX < 0 || m.to.MinY < 0 || m.to.MaxX > 1 || m.to.MaxY > 1 {
					t.Fatalf("%s: object %d moved out of the unit square: %v", w.name, m.id, m.to)
				}
			}
			if o.kind == opBulk {
				if len(o.moves) != movesPerBulk {
					t.Fatalf("%s: bulk of %d moves, want %d", w.name, len(o.moves), movesPerBulk)
				}
				g.acked(o)
			}
		}
		if sw.reads > 0 && checked == 0 {
			t.Errorf("%s: no read of the first round is marked for checking", w.name)
		}
		if len(moved) != sw.cycles*sw.writes*movesPerBulk {
			t.Errorf("%s: %d objects moved, want %d", w.name, len(moved), sw.cycles*sw.writes*movesPerBulk)
		}
		for id := range moved {
			if g.cur[id] == before[id] || g.prev[id] != before[id] {
				t.Fatalf("%s: object %d: the harness's copy did not follow the ack", w.name, id)
			}
		}
	}
}

// Every round issues the same reads, so that a read's fastest round is a
// statement about that read; its bulks differ, because each moves objects
// from where the previous round left them.
func TestRoundsRepeatReadsAndRedrawMoves(t *testing.T) {
	for _, w := range workloads {
		g := testGenerator(w, 5)
		var first [][]byte
		for round := 0; round < 3; round++ {
			ops := g.nextRound()
			for i := range ops {
				o := &ops[i]
				if round == 0 {
					first = append(first, append([]byte(nil), o.req...))
				}
				same := string(first[i]) == string(o.req)
				if o.kind != opBulk && !same {
					t.Fatalf("%s: read %d of round %d differs from round 0", w.name, i, round)
				}
				if o.kind == opBulk {
					if round > 0 && same {
						t.Fatalf("%s: bulk %d of round %d repeats round 0", w.name, i, round)
					}
					g.acked(o)
				}
			}
		}
	}
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	cur := []geom.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6},
		{MinX: 0.15, MinY: 0.15, MaxX: 0.3, MaxY: 0.3},
	}
	w := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.25}
	answer := func(ids ...spatial.ID) *rangeResponse {
		resp := &rangeResponse{Count: len(ids)}
		for _, id := range ids {
			r := cur[id]
			resp.Results = append(resp.Results, struct {
				ID  spatial.ID `json:"id"`
				MBR *rectJSON  `json:"mbr"`
			}{id, &rectJSON{r.MinX, r.MinY, r.MaxX, r.MaxY}})
		}
		return resp
	}
	if err := checkWindow(cur, w, answer(2, 0)); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	for name, resp := range map[string]*rangeResponse{
		"missing object":   answer(0),
		"duplicate object": answer(0, 0),
		"extra object":     answer(0, 1, 2),
	} {
		if checkWindow(cur, w, resp) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	stale := answer(0, 2)
	stale.Results[0].MBR.MinX = 0.11
	if checkWindow(cur, w, stale) == nil {
		t.Error("object reported with an MBR it does not have accepted")
	}
	if got := naiveCounts(cur, []geom.Rect{w, {MinX: 0.2, MinY: 0.2, MaxX: 0.5, MaxY: 0.5}}); got[0] != 2 || got[1] != 3 {
		t.Errorf("naiveCounts = %v, want [2 3] (boundaries touch)", got)
	}
	bulk := &op{kind: opBulk, moves: make([]move, 1)}
	if us, err := checkBulk(bulk, []byte(`{"epoch":3,"found":[true,true],"elapsed_us":9}`)); err != nil || us != 9 {
		t.Errorf("right bulk answer: elapsed %d, err %v", us, err)
	}
	if _, err := checkBulk(bulk, []byte(`{"epoch":3,"found":[false,true],"elapsed_us":9}`)); err == nil {
		t.Error("bulk whose delete found nothing accepted")
	}
}

// BENCHMARK.json is what the driver reads; the tables in layers.go and
// workload.go are what the harness prints. They must say the same.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}
