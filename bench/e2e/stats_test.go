package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSummarizeKeepsTheFastestRoundOfEachPosition(t *testing.T) {
	// Positions 0-3; position 2 is a bulk the percentiles leave out and
	// position 3 never completed.
	best := []int64{700, 900, 30000, 0}
	timed := []bool{true, true, false, true}
	q := summarize(best, timed)
	if want := 3 / (float64(700+900+30000) / 1e9); math.Abs(q.OpsPerSec-want) > 1e-6*want {
		t.Errorf("OpsPerSec = %v, want %v: three operations over the sum of their quiet latencies", q.OpsPerSec, want)
	}
	if q.Samples != 2 || q.P50US != 0.8 || q.Shape["max"] != 0.9 || q.Shape["min"] != 0.7 {
		t.Errorf("quietPass %+v: want the two timed positions, median 0.8 us", q)
	}
	if q := summarize(nil, nil); q.OpsPerSec != 0 || q.P50US != 0 || q.Samples != 0 {
		t.Errorf("empty pass = %+v, want zeros", q)
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 101)
	for i := range sorted {
		sorted[i] = int64(i * 10)
	}
	for _, tc := range []struct{ p, want float64 }{{0, 0}, {0.5, 500}, {0.95, 950}, {1, 1000}, {0.123, 123}} {
		if got := percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("percentile of two = %v, want interpolation 1.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of none = %v, want 0", got)
	}
	if got := medianInt64([]int64{9, 1, 5}); got != 5 {
		t.Errorf("medianInt64 = %v, want 5", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %v, want 2.5", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([2.0, 2.1, 2.4], n=4) == [2.0, 2.1, 2.4]
	if got, want := quartileSpread([]float64{2.4, 2.0, 2.1}), 0.4/2.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP twolayer_http_requests_total Requests routed to each endpoint.
# TYPE twolayer_http_requests_total counter
twolayer_http_requests_total{endpoint="v1/window"} 4000
twolayer_http_request_duration_seconds_bucket{endpoint="v1/window",le="+Inf"} 4000
twolayer_http_request_duration_seconds_sum{endpoint="v1/window"} 0.5772
twolayer_admission_shed_total{class="read",reason="queue_full"} 0
twolayer_index_objects 1e+06
odd_label{note="a b c"} 3
broken_line_without_value
broken{x="1"} notanumber

twolayer_process_gc_total 17
`
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`twolayer_http_requests_total{endpoint="v1/window"}`:                            4000,
		`twolayer_http_request_duration_seconds_bucket{endpoint="v1/window",le="+Inf"}`: 4000,
		`twolayer_http_request_duration_seconds_sum{endpoint="v1/window"}`:              0.5772,
		`twolayer_admission_shed_total{class="read",reason="queue_full"}`:               0,
		`twolayer_index_objects`:    1e6,
		`odd_label{note="a b c"}`:   3,
		`twolayer_process_gc_total`: 17,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics =\n%v\nwant\n%v", got, want)
	}
	d := metricsDelta(map[string]float64{"a": 1}, map[string]float64{"a": 4, "b": 2})
	if d["a"] != 3 || d["b"] != 2 {
		t.Errorf("metricsDelta = %v", d)
	}
}

func TestQuietSpansKeepTheFastestRound(t *testing.T) {
	spans := []span{
		// round 0 of operations 1 and 2
		{Name: "server.handle", StartNS: 0, EndNS: 100, Parent: -1, Op: 1},
		{Name: "core.query", StartNS: 100, EndNS: 160, Parent: 0, Op: 1},
		{Name: "server.handle", StartNS: 200, EndNS: 290, Parent: -1, Op: 2},
		{Name: "core.query", StartNS: 300, EndNS: 320, Parent: 2, Op: 2},
		// round 1: operation 1's handler was faster, its query slower
		{Name: "server.handle", StartNS: 400, EndNS: 480, Parent: -1, Op: 1},
		{Name: "core.query", StartNS: 500, EndNS: 590, Parent: 4, Op: 1},
		// a child recorded before its parent, as the bulk replay does
		{Name: "core.apply", StartNS: 600, EndNS: 630, Parent: 7, Op: 3},
		{Name: "wal.apply", StartNS: 700, EndNS: 740, Parent: -1, Op: 3},
	}
	got := quietSpans(spans)
	want := []span{
		{Name: "server.handle", StartNS: 400, EndNS: 480, Parent: -1, Op: 1},
		{Name: "core.query", StartNS: 100, EndNS: 160, Parent: 0, Op: 1},
		{Name: "server.handle", StartNS: 200, EndNS: 290, Parent: -1, Op: 2},
		{Name: "core.query", StartNS: 300, EndNS: 320, Parent: 2, Op: 2},
		{Name: "core.apply", StartNS: 600, EndNS: 630, Parent: 5, Op: 3},
		{Name: "wal.apply", StartNS: 700, EndNS: 740, Parent: -1, Op: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quietSpans =\n%+v\nwant\n%+v", got, want)
	}
	if self := selfTimes(got); !reflect.DeepEqual(self, []int64{20, 60, 70, 20, 30, 10}) {
		t.Errorf("self times of the quiet spans = %v, want [20 60 70 20 30 10]", self)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "server.handle", StartNS: 0, EndNS: 100, Parent: -1, Op: 1},
		{Name: "shard.search", StartNS: 200, EndNS: 260, Parent: 0, Op: 1},
		{Name: "core.query", StartNS: 200, EndNS: 245, Parent: 1, Op: 1},
		// A child replayed slower than its parent floors the parent at 0.
		{Name: "server.handle", StartNS: 300, EndNS: 310, Parent: -1, Op: 2},
		{Name: "core.query", StartNS: 400, EndNS: 430, Parent: 3, Op: 2},
	}
	got := selfTimes(spans)
	if want := []int64{40, 15, 45, 0, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	med := medianByName(spans, got)
	if med["server.handle"] != 0.020 || med["core.query"] != 0.0375 || med["shard.search"] != 0.015 {
		t.Errorf("medianByName = %v", med)
	}
}
