package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric of BENCHMARK.json. bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the numbers a user of the server sees. Every bound is the
// widest the benchmark's contract allows: on the host this was written on
// two sets of runs of the same code differ by 10-25% in anything timed
// whenever a neighbour is busy (bench/README.md, "Noise"), and a bound a
// quiet hour would justify rejects good changes in a busy one. Memory
// moves less, but where the peak falls depends on when the server last
// collected.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer are the numbers of single modules; a metric that does not
// apply to a workload's topology reads 0 there.
var perLayer = []metricDef{
	{"transport.self_us", "us", "lower", 0},
	{"server.handle_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.evaluate_us", "us", "lower", 0},
	{"server.reported_us", "us", "lower", 0},
	{"server.queue_wait_us", "us", "lower", 0},
	{"server.shed_frac", "frac", "lower", 0},
	{"server.resp_bytes_op", "B", "lower", 0},
	{"shard.search_us", "us", "lower", 0},
	{"shard.self_us", "us", "lower", 0},
	{"shard.fanout_frac", "frac", "lower", 0},
	{"shard.apply_us", "us", "lower", 0},
	{"shard.build_s", "s", "lower", 0},
	{"core.query_us", "us", "lower", 0},
	{"core.filter_us", "us", "lower", 0},
	{"core.entries_per_result", "ratio", "lower", 0},
	{"core.comparisons_per_result", "ratio", "lower", 0},
	{"core.fastpath_frac", "frac", "higher", 0},
	{"core.apply_us", "us", "lower", 0},
	{"core.clone_us", "us", "lower", 0},
	{"core.publish_us", "us", "lower", 0},
	{"core.rebuilds_per_kmut", "count", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"core.index_bytes_per_obj", "B", "lower", 0},
	{"wal.apply_us", "us", "lower", 0},
	{"wal.self_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_ms", "ms", "lower", 0},
	{"wal.bytes_per_mut", "B", "lower", 0},
	{"wal.checkpoint_s", "s", "lower", 0},
	{"wal.checkpoint_bytes", "B", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"dataio.parse_s", "s", "lower", 0},
	{"proc.cpu_us_op", "us", "lower", 0},
	{"proc.gc_per_kop", "count", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// layerTable collects the per-layer numbers of one traced run.
type layerTable struct {
	vals map[string]float64
}

func newLayerTable() *layerTable {
	t := &layerTable{vals: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		t.vals[d.name] = 0
	}
	return t
}

func (t *layerTable) set(name string, v float64) {
	if _, ok := t.vals[name]; !ok {
		panic("bench: per-layer metric " + name + " is not declared")
	}
	t.vals[name] = v
}

func (t *layerTable) get(name string) float64 { return t.vals[name] }

func (t *layerTable) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{t.vals[d.name], d.unit}
	}
	return out
}

// fromCounters fills the numbers that are differences of the server's
// own /metrics counters (and of its CPU time) over the measured
// intervals of the untraced pass.
func (t *layerTable) fromCounters(w workload, p *pass) {
	m := p.metrics
	class := `{class="` + w.admitClass + `"}`
	t.set("server.queue_wait_us", 1e6*ratio(
		m["twolayer_admission_queue_wait_seconds_sum"+class],
		m["twolayer_admission_queue_wait_seconds_count"+class]))
	endpoint := `{endpoint="` + w.endpoint + `"}`
	t.set("server.reported_us", 1e6*ratio(
		m["twolayer_http_request_duration_seconds_sum"+endpoint],
		m["twolayer_http_request_duration_seconds_count"+endpoint]))
	var shed float64
	for _, reason := range []string{"deadline", "expired", "queue_full"} {
		shed += m[`twolayer_admission_shed_total{class="`+w.admitClass+`",reason="`+reason+`"}`]
	}
	t.set("server.shed_frac", ratio(shed, shed+m["twolayer_admission_admitted_total"+class]))

	single, fanout := m["twolayer_shard_single_queries_total"], m["twolayer_shard_fanout_queries_total"]
	t.set("shard.fanout_frac", ratio(fanout, single+fanout))

	results := m["twolayer_query_results_total"]
	t.set("core.entries_per_result", ratio(m["twolayer_query_entries_scanned_total"], results))
	t.set("core.comparisons_per_result", ratio(m["twolayer_query_comparisons_total"], results))
	if w.read == opCount {
		// A fanned-out count is one pushdown per shard it reaches.
		countCalls := m[`twolayer_http_requests_total{endpoint="v1/window"}`]
		if single+fanout > 0 {
			countCalls = 0
			for k, v := range m {
				if strings.HasPrefix(k, "twolayer_shard_queries_total{") {
					countCalls += v
				}
			}
		}
		t.set("core.fastpath_frac", ratio(m["twolayer_query_fastpath_counts_total"], countCalls))
	}
	t.set("core.index_bytes_per_obj", ratio(m["twolayer_index_memory_bytes"], m["twolayer_index_objects"]))

	applied := m["twolayer_live_applied_mutations_total"]
	t.set("core.publish_us", 1e6*ratio(m["twolayer_live_publish_seconds_total"], m["twolayer_live_publishes_total"]))
	t.set("core.rebuilds_per_kmut", 1e3*ratio(m["twolayer_live_rebuilds_total"], applied))

	t.set("wal.append_us", 1e6*ratio(m["twolayer_wal_append_seconds_total"], m["twolayer_wal_appended_records_total"]))
	t.set("wal.fsync_ms", 1e3*ratio(m["twolayer_wal_fsync_seconds_total"], m["twolayer_wal_fsyncs_total"]))
	t.set("wal.bytes_per_mut", ratio(m["twolayer_wal_appended_bytes_total"], applied))

	ops := float64(p.done)
	t.set("proc.cpu_us_op", 1e6*ratio(p.cpuS, ops))
	t.set("proc.gc_per_kop", 1e3*ratio(m["twolayer_process_gc_total"], ops))
}

// fromTrace fills the numbers read from the fields of the responses of
// the traced pass.
func (t *layerTable) fromTrace(p *pass) {
	t.set("server.evaluate_us", medianInt64(p.evalUS))
	t.set("core.filter_us", medianInt64(p.filterUS))
}

// reconcile states, per workload, how the layers' self times add up to
// the untraced p50, how the in-process handler compares with what the
// live server reported about itself, and what share of p50 each layer has.
func (t *layerTable) reconcile(w workload, p50US float64) []string {
	share := func(name string) float64 { return 100 * ratio(t.get(name), p50US) }
	engine := "core.query_us"
	if w.timed == opBulk {
		engine = "core.apply_us"
	}
	layers := []string{"transport.self_us", "server.self_us", "shard.self_us", "wal.self_us", engine}
	var sum float64
	line := "shares of the untraced p50:"
	for _, name := range layers {
		sum += t.get(name)
		line += fmt.Sprintf(" %s %.0f%%", strings.TrimSuffix(name, "_us"), share(name))
	}
	notes := []string{
		fmt.Sprintf("untraced p50 %.1f us; layer self times sum to %.1f us, %.0f%% of it", p50US, sum, 100*ratio(sum, p50US)),
		line,
		fmt.Sprintf("in-process server.handle %.1f us (median) against the live server's own mean request duration %.1f us",
			t.get("server.handle_us"), t.get("server.reported_us")),
	}
	if w.timed == opBulk {
		notes = append(notes, fmt.Sprintf("one core.clone is %.0f%% of p50", share("core.clone_us")))
	}
	return notes
}
