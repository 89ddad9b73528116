package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark can print.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints, on every workload,
// in the result line (BENCHMARK.json's end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"qps_at_slo", "1/s"},
	{"heap_mb", "MB"},
	{"approx_ratio.pss", "ratio"},
	{"approx_ratio.rls-skip", "ratio"},
	{"mean_rank.pss", "rank"},
	{"mean_rank.rls-skip", "rank"},
	{"recall_at_10.ann", "ratio"},
}

// perLayer are the metrics every traced run prints, on every workload, in
// the result line (BENCHMARK.json's per_layer list). A layer a workload
// does not cross (the router on ingest-live) reads 0.
var perLayer = []metricDef{
	{"api.codec_us", "us"},
	{"client.span_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.node_rtt_ms", "ms"},
	{"router.node_calls_per_query", "count"},
	{"router.bounds_per_query", "count"},
	{"router.hedges_per_query", "count"},
	{"router.retries", "count"},
	{"server.span_ms", "ms"},
	{"server.self_ms", "ms"},
	{"engine.query_ms.pss", "ms"},
	{"engine.query_ms.exacts", "ms"},
	{"engine.query_ms.rls-skip", "ms"},
	{"engine.query_ms.ann", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.shed", "count"},
	{"engine.deadline_rejects", "count"},
	{"engine.add_ms", "ms"},
	{"engine.add_growth", "ratio"},
	{"core.candidates_per_query", "count"},
	{"core.lb_skip_ratio", "ratio"},
	{"core.early_abandon_ratio", "ratio"},
	{"core.scan_ms.pss", "ms"},
	{"core.scan_ms.exacts", "ms"},
	{"core.scan_ms.rls-skip", "ms"},
	{"core.scan_ms.ann", "ms"},
	{"sim.dp_us_per_candidate", "us"},
	{"rl.skipped_fraction", "ratio"},
	{"t2vec.embed_us", "us"},
	{"t2vec.insert_embed_us", "us"},
	{"ann.search_us", "us"},
	{"ann.candidate_fraction", "ratio"},
	{"storage.append_ms", "ms"},
	{"storage.sync_ms", "ms"},
	{"storage.snapshot_ms", "ms"},
	{"storage.bytes_per_user_byte", "ratio"},
	{"runtime.alloc_kb_per_query", "KB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// reportOnly are printed in the report lines but not in the result line:
// they exist on some workloads only (recover_s on ingest-live), read 0 on
// a healthy run (error_rate), or are wall-clock times and rates that
// follow the host's speed more than any bound the result line allows — on
// a shared 2-vCPU host their spread over ten runs reached 0.27–0.43 of the
// median for query_p50_ms and ingest_rps, 0.23–0.87 for query_p99_ms and
// 0.70 for setup_wall_s, as neighbours took the CPU for whole runs at a
// time. setup_s and cpu_ms_per_op count CPU time instead, scaled to the
// reference speed (see refClock); the unscaled value and the reference
// computation's cost are printed beside them.
var reportOnly = []metricDef{
	{"error_rate", "ratio"},
	{"recover_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"ingest_rps", "1/s"},
	{"setup_wall_s", "s"},
	{"cpu_ms_per_op.unscaled", "ms"},
	{"host.ref_cost_us", "us"},
	{"query_p50_ms.untraced", "ms"},
	{"query_p50_ms.traced", "ms"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range l {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

type metric struct {
	Value float64
	Unit  string
	N     int // samples behind the value
}

// report accumulates one run's metrics, counts and gate failures. Human
// report lines go to w as they happen; finish prints the result line.
type report struct {
	w         io.Writer
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []error
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	r.metrics[name] = metric{Value: v, Unit: u, N: n}
}

// attempt counts operations attempted and failed (loads and queries).
func (r *report) attempt(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// fail records a correctness failure; a nil error is ignored.
func (r *report) fail(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
		r.line("FAIL: %v", err)
	}
}

func (r *report) line(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

func (r *report) stepLine(st step, slo float64, conns int) {
	lat := st.latenciesMS()
	r.line("step: offered %.0f/s achieved %.1f/s n=%d p50=%.3fms p99=%.3fms failed=%d backlog=%d lag_p99=%.3fms slo(p99<=%.0fms)=%v",
		st.Rate, st.Achieved, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), st.failures(), st.Backlog,
		quantile(st.lagsMS(), 0.99), slo, st.meetsSLO(slo, conns))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every metric with its unit and sample count, then the
// result line holding the mode's declared metrics. It returns an error if
// a gate failed or a declared metric is missing.
func (r *report) finish(declared []metricDef) error {
	if r.attempted > 0 {
		r.set("error_rate", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		r.line("metric %-30s %14.6g %-6s n=%d", n, m.Value, m.Unit, m.N)
	}
	res := result{Correct: len(r.errs) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]resultItem{}}
	var missing []string
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = resultItem{Value: m.Value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		r.fail(fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", ")))
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.w, "%s\n", line)
	return errors.Join(r.errs...)
}
