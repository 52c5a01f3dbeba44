package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload it should move, so a
// change to one layer can state its prediction in these terms.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
}

// endToEnd are the metrics a closnetd caller sees, reported with tracing
// off. A request in session-churn is one delta. error_rate is carried
// by the result's attempted and failed counts; success_rate is its
// complement, reported because a metric that is 0 on every good run
// cannot carry a relative bound.
var endToEnd = []metricSpec{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "success_rate", Unit: "ratio", Better: "higher"},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the metrics of single layers reported in the result line
// with -trace 1, named after the module that does the work. Each comes
// from the in-process traced replay or from the daemon's /v1/stats
// counters and /proc entries.
var perLayer = []metricSpec{
	{"server.serve_us", "us", "lower", "throughput_rps, latency_p99_ms on evaluate-warm"},
	{"http.transport_us", "us", "lower", "latency_p50_ms on evaluate-warm"},
	{"server.cache_hit_ratio", "ratio", "higher", "evaluate-warm only; 0 elsewhere by design"},
	{"server.coalesced_ratio", "ratio", "lower", "0 on every workload by design"},
	{"server.rejects", "count", "lower", "0 on every workload by design"},
	{"codec.decode_us", "us", "lower", "latency_p50_ms on evaluate-cold"},
	{"codec.request_bytes", "bytes", "lower", "latency_p50_ms on evaluate-cold"},
	{"engine.prepare_us", "us", "lower", "throughput_rps on evaluate-cold"},
	{"topology.build_us", "us", "lower", "throughput_rps on evaluate-cold; setup_s on session-churn"},
	{"core.block_promotions", "count", "lower", "throughput_rps on evaluate-cold and search-lex"},
	{"codec.rates_format_us", "us", "lower", "throughput_rps on evaluate-cold"},
	{"codec.marshal_us", "us", "lower", "throughput_rps on evaluate-cold"},
	{"codec.response_bytes", "bytes", "lower", "throughput_rps on evaluate-cold"},
	{"engine.compute_us", "us", "lower", "throughput_rps on evaluate-cold and search-lex"},
	{"engine.compute_unattributed_us", "us", "lower", "throughput_rps on evaluate-cold and search-lex"},
	{"engine.evaluator_reuse_ratio", "ratio", "higher", "0 on evaluate-cold by design"},
	{"core.delta_levels_skipped_per_delta", "count/req", "higher", "throughput_rps on session-churn"},
	{"core.delta_promotions", "count", "lower", "throughput_rps on session-churn"},
	{"search.evals_per_req", "count/req", "lower", "throughput_rps on search-lex"},
	{"search.bound_evals_per_req", "count/req", "lower", "throughput_rps on search-lex"},
	{"search.pruned_subtrees_per_req", "count/req", "higher", "throughput_rps on search-lex"},
	{"process.cpu_us_per_req", "us", "lower", "throughput_rps on every workload"},
	{"process.alloc_kb_per_req", "kB", "lower", "latency_p99_ms, server_rss_mb on every workload"},
	{"process.mallocs_per_req", "count/req", "lower", "latency_p99_ms, server_rss_mb on every workload"},
	{"process.gc_per_kreq", "count/kreq", "lower", "latency_p99_ms, server_rss_mb on every workload"},
	{"trace.overhead_frac", "frac", "lower", "none: the traced run is trusted only when this is small"},
	{"trace.coverage_frac", "frac", "higher", "none: the traced run is trusted only when this is high"},
}

// layerDetail are per-layer times of layers that only some workloads
// call: evaluate-cold calls no search, search-lex no block evaluator of
// its own, and only session-churn the session layers. They are printed
// in the summary and kept in the span file, but left out of the result
// line, where a layer a workload never calls would read a constant 0.
var layerDetail = []metricSpec{
	{"codec.topology_hash_us", "us", "lower", "throughput_rps on evaluate-cold"},
	{"core.block_new_us", "us", "lower", "throughput_rps on evaluate-cold"},
	{"core.block_fill_us", "us", "lower", "throughput_rps on evaluate-cold and search-lex"},
	{"engine.session_delta_us", "us", "lower", "throughput_rps, latency_p50_ms on session-churn"},
	{"engine.session_open_us", "us", "lower", "setup_s on session-churn"},
	{"codec.decode_delta_us", "us", "lower", "throughput_rps, latency_p50_ms on session-churn"},
	{"core.incremental_delta_us", "us", "lower", "throughput_rps on session-churn"},
	{"search.lex_us", "us", "lower", "throughput_rps on search-lex"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a metrics map from values keyed by name, in the order
// and with the units of specs. A spec without a value is a bug in the
// benchmark, not in the program under test.
func report(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule on a sorted copy, and how many samples lie above
// it — the count that says whether a tail percentile is supported by
// the sample. An empty sample returns NaN.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the 0.5 percentile; 0 for an empty sample, which per-layer
// metrics of a layer a workload never calls report.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
