package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// The response shapes the harness reads. Fields it does not use are left
// out; encoding/json skips them.

type rectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func (r rectJSON) rect() geom.Rect {
	return geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

type traceJSON struct {
	FilterUS int64 `json:"filter_us"`
	Shards   []struct {
		ElapsedUS int64 `json:"elapsed_us"`
	} `json:"shards"`
}

type rangeResponse struct {
	Count   int `json:"count"`
	Results []struct {
		ID  spatial.ID `json:"id"`
		MBR *rectJSON  `json:"mbr"`
	} `json:"results"`
	Truncated bool       `json:"truncated"`
	ElapsedUS int64      `json:"elapsed_us"`
	Trace     *traceJSON `json:"trace"`
}

type batchResponse struct {
	Counts    []int `json:"counts"`
	Total     int   `json:"total"`
	ElapsedUS int64 `json:"elapsed_us"`
}

type bulkResponse struct {
	Found     []bool `json:"found"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// resultLimit is the server's default result limit; the workloads send
// none of their own.
const resultLimit = 1000

// naiveCounts scans every rectangle once and counts, per window, the
// ones it intersects (boundaries included, as the index defines it).
func naiveCounts(cur []geom.Rect, wins []geom.Rect) []int {
	counts := make([]int, len(wins))
	for _, r := range cur {
		for i, w := range wins {
			if r.Intersects(w) {
				counts[i]++
			}
		}
	}
	return counts
}

// naiveWindow returns the IDs of the rectangles intersecting w.
func naiveWindow(cur []geom.Rect, w geom.Rect) []spatial.ID {
	var ids []spatial.ID
	for id, r := range cur {
		if r.Intersects(w) {
			ids = append(ids, spatial.ID(id))
		}
	}
	return ids
}

// checkWindow compares a /v1/window answer with the naive scan: the
// same objects, each once, each with the MBR the harness holds for it.
// An answer cut at the result limit must be a duplicate-free subset.
func checkWindow(cur []geom.Rect, w geom.Rect, resp *rangeResponse) error {
	want := naiveWindow(cur, w)
	if resp.Count != len(resp.Results) {
		return fmt.Errorf("count %d but %d results", resp.Count, len(resp.Results))
	}
	// A window holding exactly the limit may be reported either way: the
	// server stops at the limit without looking for one more.
	switch {
	case len(want) < resultLimit && (resp.Truncated || resp.Count != len(want)),
		len(want) == resultLimit && resp.Count != resultLimit:
		return fmt.Errorf("window %v: got %d results (truncated=%v), naive scan finds %d",
			w, resp.Count, resp.Truncated, len(want))
	case len(want) > resultLimit && (!resp.Truncated || resp.Count != resultLimit):
		return fmt.Errorf("window %v: got %d results (truncated=%v), naive scan finds %d > limit",
			w, resp.Count, resp.Truncated, len(want))
	}
	seen := make(map[spatial.ID]struct{}, len(resp.Results))
	for _, res := range resp.Results {
		if _, dup := seen[res.ID]; dup {
			return fmt.Errorf("window %v: object %d reported twice", w, res.ID)
		}
		seen[res.ID] = struct{}{}
		if int(res.ID) >= len(cur) || res.MBR == nil || res.MBR.rect() != cur[res.ID] {
			return fmt.Errorf("window %v: object %d reported with MBR %v, harness holds %v",
				w, res.ID, res.MBR, cur[min(int(res.ID), len(cur)-1)])
		}
		if !cur[res.ID].Intersects(w) {
			return fmt.Errorf("window %v: object %d does not intersect it", w, res.ID)
		}
	}
	return nil
}

// checkBatch compares a seeded sample of a batch's counts with the naive
// scan, and its total with the sum of its counts.
func checkBatch(cur []geom.Rect, wins []geom.Rect, resp *batchResponse, rnd *rand.Rand) error {
	if len(resp.Counts) != len(wins) {
		return fmt.Errorf("batch of %d windows answered with %d counts", len(wins), len(resp.Counts))
	}
	total := 0
	for _, c := range resp.Counts {
		total += c
	}
	if total != resp.Total {
		return fmt.Errorf("batch total %d, counts sum to %d", resp.Total, total)
	}
	pick := rnd.Perm(len(wins))[:min(batchChecked, len(wins))]
	sample := make([]geom.Rect, len(pick))
	for i, p := range pick {
		sample[i] = wins[p]
	}
	for i, c := range naiveCounts(cur, sample) {
		if resp.Counts[pick[i]] != c {
			return fmt.Errorf("batch window %d %v: count %d, naive scan finds %d",
				pick[i], wins[pick[i]], resp.Counts[pick[i]], c)
		}
	}
	return nil
}

// checkBulk requires that every delete of a bulk found its object, and
// returns the apply time the server reported.
func checkBulk(o *op, body []byte) (elapsedUS int64, err error) {
	var resp bulkResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("bulk response: %w", err)
	}
	if len(resp.Found) != 2*len(o.moves) {
		return 0, fmt.Errorf("bulk of %d mutations answered with %d found flags", 2*len(o.moves), len(resp.Found))
	}
	for i, f := range resp.Found {
		if !f {
			return 0, fmt.Errorf("bulk mutation %d (object %d): delete found nothing", i, o.moves[i/2].id)
		}
	}
	return resp.ElapsedUS, nil
}

// verifySample picks the objects the final verification looks up: every
// object the last round's acknowledged bulks moved plus a seeded sample of up to
// extra earlier ones.
func verifySample(g *generator, extra int) []spatial.ID {
	ids := append([]spatial.ID(nil), g.lastMoved...)
	inLast := make(map[spatial.ID]struct{}, len(ids))
	for _, id := range ids {
		inLast[id] = struct{}{}
	}
	var earlier []spatial.ID
	for id := range g.prev {
		if _, ok := inLast[id]; !ok {
			earlier = append(earlier, id)
		}
	}
	sort.Slice(earlier, func(a, b int) bool { return earlier[a] < earlier[b] })
	rnd := rand.New(rand.NewSource(streamSeed(g.seed, "verify", 0)))
	rnd.Shuffle(len(earlier), func(a, b int) { earlier[a], earlier[b] = earlier[b], earlier[a] })
	return append(ids, earlier[:min(extra, len(earlier))]...)
}

// verifyState checks the served state against the acknowledged one: the
// object count, and for each sampled moved object that it is found
// exactly once at its last acknowledged MBR and not at the one it left.
// It returns how many lookups it made and the first mismatches.
func verifyState(c *client, g *generator, ids []spatial.ID) (attempted int, errs []error) {
	fail := func(err error) {
		if len(errs) < 5 {
			errs = append(errs, err)
		}
	}
	attempted++
	status, body, err := c.get("/v1/stats")
	var stats struct {
		Index struct {
			Objects int `json:"objects"`
		} `json:"index"`
	}
	if err := expect200("GET /v1/stats", status, body, err); err != nil {
		fail(err)
	} else if err := json.Unmarshal(body, &stats); err != nil {
		fail(fmt.Errorf("GET /v1/stats: %w", err))
	} else if stats.Index.Objects != len(g.cur) {
		fail(fmt.Errorf("/v1/stats reports %d objects, %d were loaded and only moved", stats.Index.Objects, len(g.cur)))
	}

	lookup := func(w geom.Rect) (*rangeResponse, error) {
		var req []byte
		req = encodeRequest(req, "POST", "/v1/window", appendWindowBody(nil, w, false), false)
		status, body, err := c.do(req)
		if err := expect200("POST /v1/window", status, body, err); err != nil {
			return nil, err
		}
		var resp rangeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	for _, id := range ids {
		attempted++
		now, was := g.cur[id], g.prev[id]
		resp, err := lookup(now)
		if err != nil {
			fail(err)
			continue
		}
		hits := 0
		for _, res := range resp.Results {
			if res.ID == id && res.MBR != nil && res.MBR.rect() == now {
				hits++
			}
		}
		if hits != 1 && !resp.Truncated {
			fail(fmt.Errorf("object %d: found %d times at its last acknowledged MBR %v", id, hits, now))
			continue
		}
		if was == now {
			continue
		}
		resp, err = lookup(was)
		if err != nil {
			fail(err)
			continue
		}
		for _, res := range resp.Results {
			if res.ID == id && res.MBR != nil && res.MBR.rect() == was {
				fail(fmt.Errorf("object %d: still found at the MBR %v it was moved from", id, was))
			}
		}
	}
	return attempted, errs
}
