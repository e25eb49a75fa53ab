package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// quietPass is what a pass of rounds says about a workload once the
// host's interference is taken out. A round issues the same block of
// operations; an operation's quiet latency is the fastest of its rounds,
// the one nothing else on the host got in the way of. Slow-downs from
// outside are one-sided, so the minimum over enough rounds converges on
// the undisturbed time where a mean or a median over the same rounds
// moves with the neighbour.
type quietPass struct {
	// OpsPerSec is the block's operations over the sum of their quiet
	// latencies: the throughput of one undisturbed round.
	OpsPerSec float64
	// P50US and P95US are over the quiet latencies of the block's timed
	// operations, Samples how many of those there are.
	P50US, P95US float64
	Samples      int
	// Shape is their distribution in microseconds, for the result file:
	// a reader sees from it whether p95 sits in the body.
	Shape map[string]float64
}

// summarize reduces best, the per-position quiet latencies in ns (0 for a
// position no round completed), to a quietPass; timed marks the positions
// whose latencies the percentiles are over.
func summarize(best []int64, timed []bool) quietPass {
	var ops int
	var sum int64
	var lat []int64
	for i, b := range best {
		if b == 0 {
			continue
		}
		ops++
		sum += b
		if timed[i] {
			lat = append(lat, b)
		}
	}
	q := quietPass{Samples: len(lat), Shape: make(map[string]float64)}
	if sum > 0 {
		q.OpsPerSec = float64(ops) / (float64(sum) / 1e9)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	q.P50US = percentile(lat, 0.50) / 1e3
	q.P95US = percentile(lat, 0.95) / 1e3
	for name, p := range map[string]float64{"min": 0, "p10": 0.10, "p25": 0.25, "p50": 0.50, "p75": 0.75, "p90": 0.90, "p95": 0.95, "p99": 0.99, "max": 1} {
		q.Shape[name] = percentile(lat, p) / 1e3
	}
	return q
}

// percentile returns the p-quantile of sorted by linear interpolation
// between closest ranks, 0 for an empty slice.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// medianInt64 returns the median of vals (which it sorts), 0 when empty.
func medianInt64(vals []int64) float64 {
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return percentile(vals, 0.5)
}

// medianFloat returns the median of vals without reordering them.
func medianFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// parseMetrics reads the Prometheus text exposition format into a map
// keyed by the sample name with its label set exactly as printed, e.g.
// `twolayer_http_requests_total{endpoint="v1/window"}`. Comment lines
// and lines that do not end in a number are skipped.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces; the value is what follows the
		// last one outside the braces.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); end > cut {
			continue
		}
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// metricsDelta is after − before for every sample of after.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the index of the causing span in the same trace,
// -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// quietSpans reduces the spans of rounds to one span per (name, op): the
// fastest. A kept span's parent is the kept span of its parent's name in
// the same operation.
func quietSpans(spans []span) []span {
	type key struct {
		name string
		op   int
	}
	kept := make(map[key]int)
	var out []span
	for _, s := range spans {
		k := key{s.Name, s.Op}
		if i, seen := kept[k]; !seen {
			kept[k] = len(out)
			out = append(out, s)
		} else if s.EndNS-s.StartNS < out[i].EndNS-out[i].StartNS {
			out[i] = s
		}
	}
	for i, s := range out {
		if s.Parent >= 0 {
			out[i].Parent = kept[key{spans[s.Parent].Name, s.Op}]
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children, floored at zero. Children are replayed separately
// from their parents (the program has no spans of its own yet), so the
// subtraction is over durations, not over overlapping clock ranges.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// medianByName groups vals by the span names and returns each group's
// median in microseconds.
func medianByName(spans []span, vals []int64) map[string]float64 {
	groups := make(map[string][]int64)
	for i, s := range spans {
		groups[s.Name] = append(groups[s.Name], vals[i])
	}
	out := make(map[string]float64, len(groups))
	for name, g := range groups {
		out[name] = medianInt64(g) / 1e3
	}
	return out
}
