package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/traj"
)

// The traced run: the same deployment and request stream as the untraced
// run, driven at the nominal rate twice — first without trace headers,
// then with every request traced — followed by the direct-call passes.
// Per-layer numbers come from the traced half; the difference of the two
// halves' p50 is the tracing overhead.

// maxKept bounds the answered requests kept for the codec pass.
const maxKept = 256

// phases runs the untraced then the traced half at the nominal rate and
// reports the generator, runtime and overhead metrics; between runs in
// between. next(h, i) is the i-th spec of half h.
func (r *runner) phases(tr *tracer, url string, next func(half, i int) api.QuerySpec, between func()) []answered {
	dur, conns := r.seconds/2, r.conns
	plain := generatorClient(url, conns, nil)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced := runStep(context.Background(), r.w.Nominal, dur, conns, drainLimit, nil, func(ctx context.Context, i int) error {
		_, err := timedQuery(ctx, plain, next(0, i))
		return err
	})
	runtime.ReadMemStats(&ms1)
	r.rep.attempt(len(untraced.Out), untraced.failures())
	r.rep.stepLine(untraced, r.w.SLOMS, conns)
	if n := len(untraced.Out); n > 0 {
		r.rep.set("runtime.alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(n), n)
	}
	r.rep.set("runtime.gc_cpu_fraction", ms1.GCCPUFraction, 1)
	r.rep.set("loadgen.lag_p99_ms", quantile(untraced.lagsMS(), 0.99), len(untraced.Out))

	between()
	traced := generatorClient(url, conns, tr)
	var mu sync.Mutex
	var kept []answered
	st := runStep(context.Background(), r.w.Nominal, dur, conns, drainLimit, nil, func(ctx context.Context, i int) error {
		spec := next(1, i)
		s, ref := tr.begin(spanRef{}, "client", classLabel(spec))
		ms, err := timedQuery(withSpan(ctx, ref), traced, spec)
		tr.end(s)
		if err == nil {
			mu.Lock()
			if len(kept) < maxKept {
				kept = append(kept, answered{spec, ms})
			}
			mu.Unlock()
		}
		return err
	})
	r.rep.attempt(len(st.Out), st.failures())
	r.rep.stepLine(st, r.w.SLOMS, conns)
	pu, pt := quantile(untraced.latenciesMS(), 0.5), quantile(st.latenciesMS(), 0.5)
	r.rep.set("query_p50_ms.untraced", pu, len(untraced.Out))
	r.rep.set("query_p50_ms.traced", pt, len(st.Out))
	r.rep.set("trace.overhead_ms", pt-pu, len(st.Out))
	return kept
}

func classLabel(s api.QuerySpec) string {
	if s.ANN != nil {
		return "ann"
	}
	return s.Algorithm
}

// engineLayer reports the engine and core counters of the traced half:
// cache hit ratio, admission, and the pruning cascade per query.
// b and a are the engine counters before and after it.
func (r *runner) engineLayer(b, a api.Stats, queries int64) {
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	r.rep.set("engine.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.rep.set("engine.queue_wait_ms", a.QueueWaitMS, 1)
	r.rep.set("engine.shed", float64(a.Shed-b.Shed), int(queries))
	r.rep.set("engine.deadline_rejects", float64(a.DeadlineRejects-b.DeadlineRejects), int(queries))
	cands := float64(a.CandidatesSeen - b.CandidatesSeen)
	r.rep.set("core.candidates_per_query", ratio(cands, float64(queries)), int(queries))
	r.rep.set("core.lb_skip_ratio", ratio(float64(a.LBSkipped-b.LBSkipped), cands), int(cands))
	r.rep.set("core.early_abandon_ratio", ratio(float64(a.EarlyAbandoned-b.EarlyAbandoned), cands), int(cands))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers reports the span-derived metrics and prints the per-layer
// self-time summary.
func (r *runner) spanLayers(spans []span) {
	sum := summarize(spans)
	layers := make([]string, 0, len(sum))
	for l := range sum {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		s := sum[l]
		r.rep.line("layer %-10s spans=%-6d span_p50=%.3fms self_p50=%.3fms", l, s.Count, s.SpanMS, s.SelfMS)
	}
	r.rep.set("client.span_ms", sum["client"].SpanMS, sum["client"].Count)
	r.rep.set("router.self_ms", sum["router"].SelfMS, sum["router"].Count)
	r.rep.set("router.node_rtt_ms", sum["node_call"].SpanMS, sum["node_call"].Count)
	r.rep.set("router.node_calls_per_query", ratio(float64(sum["node_call"].Count), float64(sum["router"].Count)), sum["router"].Count)
	r.rep.set("server.span_ms", sum["server"].SpanMS, sum["server"].Count)
}

// node0Spans returns the durations (ms) of the server spans of the node
// whose URL is node0: those under a node_call span to its host, or all
// server spans when there is no router in between.
func node0Spans(spans []span, node0 string) []float64 {
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []float64
	for _, s := range spans {
		if s.Layer != "server" {
			continue
		}
		if p, ok := byID[s.Parent]; ok && p.Layer == "node_call" && !strings.HasSuffix(node0, "//"+p.Name) {
			continue
		}
		out = append(out, float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

func (r *runner) exportSpans(tr *tracer) {
	spans := tr.snapshot()
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.w.Name, r.seed))
	err := os.MkdirAll(r.out, 0o755)
	if err == nil {
		err = writeSpans(path, spans)
	}
	if err != nil {
		r.rep.fail(fmt.Errorf("exporting spans: %w", err))
		return
	}
	r.rep.line("spans: %d written to %s", len(spans), path)
}

// tracedFleet is the traced run of the fleet workloads; pool is fleet-hot's
// spec pool (nil for fleet-scan's unique queries).
func (r *runner) tracedFleet(pool []api.QuerySpec) error {
	tr := newTracer()
	var warm func(*client.Client) error
	if pool != nil {
		warm = warmer(pool)
	}
	d, err := bootFleet(r.in, tr, warm)
	if err != nil {
		return err
	}
	defer func() { r.rep.fail(d.close()) }()
	tr.node0 = d.nodes[0].ln.url
	n := int(r.w.Nominal*r.seconds.Seconds()/2) + 1
	var specs [2][]api.QuerySpec
	for h := range specs {
		if pool != nil {
			for _, pi := range zipf(r.seed+int64(h), len(pool), n) {
				specs[h] = append(specs[h], pool[pi])
			}
			continue
		}
		for i, q := range r.in.queries(n) {
			specs[h] = append(specs[h], r.in.spec(scanMix[i%len(scanMix)], q, annBudget(r.sz.Corpus, 2)))
		}
	}
	admin := client.New(d.url())
	var before, after *api.StatsResponse
	between := func() {
		before, err = admin.Stats(context.Background())
		tr.mu.Lock()
		tr.captured = nil
		tr.mu.Unlock()
	}
	kept := r.phases(tr, d.url(), func(h, i int) api.QuerySpec { return specs[h][i%n] }, between)
	if err != nil {
		return err
	}
	if after, err = admin.Stats(context.Background()); err != nil {
		return err
	}
	rs0, rs1 := before.Router, after.Router
	queries := rs1.Queries - rs0.Queries
	r.engineLayer(before.Engine, after.Engine, queries)
	r.rep.set("router.bounds_per_query", ratio(float64(rs1.BoundsPropagated-rs0.BoundsPropagated), float64(queries)), int(queries))
	r.rep.set("router.hedges_per_query", ratio(float64(rs1.Hedges-rs0.Hedges), float64(queries)), int(queries))
	r.rep.set("router.retries", float64(rs1.Retries-rs0.Retries), int(queries))
	spans := tr.snapshot()
	r.spanLayers(spans)

	// the direct engine stands in for node 0: its share of the corpus,
	// fetched back through the node's public trajectory endpoint
	share, err := fetchAll(client.New(tr.node0), d.nodes[0].eng.Len())
	if err != nil {
		return err
	}
	tr.mu.Lock()
	captured := tr.captured
	tr.mu.Unlock()
	if err := r.direct(directInput{
		share: share, batch: loadBatch / 2, corpus: r.in.corpus,
		replay: captured, warmReplay: pool != nil, serverMS: node0Spans(spans, tr.node0),
		shards: 8, budget: annBudget(r.sz.Corpus, 2), kept: kept,
	}); err != nil {
		return err
	}
	f := newFlat(r.in.corpus)
	r.gate(f, r.quality(context.Background(), admin, f, annBudget(r.sz.Corpus, 2)))
	r.exportSpans(tr)
	return nil
}

// fetchAll reads a node's trajectories 0..n-1 through GET /v2/trajectories.
func fetchAll(c *client.Client, n int) ([]traj.Trajectory, error) {
	out := make([]traj.Trajectory, n)
	for id := range out {
		rec, err := c.GetTrajectory(context.Background(), id)
		if err != nil {
			return nil, fmt.Errorf("fetching trajectory %d: %w", id, err)
		}
		t, aerr := rec.Trajectory.ToTraj()
		if aerr != nil {
			return nil, aerr
		}
		out[id] = t
	}
	return out, nil
}

// tracedIngest is ingest-live's traced run. Each half streams into its own
// fresh durable node, since a stream cannot be repeated on the same store.
func (r *runner) tracedIngest() error {
	tr := newTracer()
	var halves [2]roundsResult
	for h := range halves {
		var ttr *tracer
		if h == 1 {
			ttr = tr
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var err error
		halves[h], err = r.ingestRounds(r.seconds/2, ttr, nil)
		defer r.removeDirs(halves[h].dirs)
		if err != nil {
			if halves[h].d != nil {
				r.rep.fail(halves[h].d.close())
			}
			return err
		}
		if h == 0 {
			if err := halves[h].closeRound(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		if n := len(halves[h].st.Out); h == 0 && n > 0 {
			// everything the process allocated in the window, the stream's
			// decoding and indexing included, per query served
			r.rep.set("runtime.alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(n), n)
			r.rep.set("runtime.gc_cpu_fraction", ms1.GCCPUFraction, 1)
		}
	}
	d := halves[1].d
	defer func() { r.rep.fail(d.close()) }()
	un, st := halves[0].st, halves[1].st
	pu, pt := quantile(un.latenciesMS(), 0.5), quantile(st.latenciesMS(), 0.5)
	r.rep.set("query_p50_ms.untraced", pu, len(un.Out))
	r.rep.set("query_p50_ms.traced", pt, len(st.Out))
	r.rep.set("trace.overhead_ms", pt-pu, len(st.Out))
	r.rep.set("loadgen.lag_p99_ms", quantile(un.lagsMS(), 0.99), len(un.Out))

	// the traced half's engine counters: every round's node, the last one
	// still serving included
	admin := client.New(d.url())
	last, err := admin.Stats(context.Background())
	if err != nil {
		return err
	}
	halves[1].addStats(last.Engine)
	queries := halves[1].engine.Queries
	r.engineLayer(api.Stats{}, halves[1].engine, queries)
	for _, m := range []string{"router.self_ms", "router.node_rtt_ms", "router.node_calls_per_query",
		"router.bounds_per_query", "router.hedges_per_query", "router.retries"} {
		r.rep.set(m, 0, 0) // no router in front of the durable node
	}
	spans := tr.snapshot()
	r.spanLayers(spans)

	corpus := append(append([]traj.Trajectory(nil), r.in.corpus...), r.in.stream[:halves[1].last]...)
	replay := make([][]byte, len(halves[1].specs))
	for i, s := range halves[1].specs {
		if replay[i], err = json.Marshal(api.Query{Specs: []api.QuerySpec{s}}); err != nil {
			return err
		}
	}
	// the traced queries met, on average, the seed corpus plus half a
	// round's stream; the direct engine holds that much
	mid := append(append([]traj.Trajectory(nil), r.in.corpus...), r.in.stream[:len(r.in.stream)/2]...)
	if err := r.direct(directInput{
		share: mid, batch: 512, corpus: corpus, replay: replay,
		serverMS: node0Spans(spans, ""), shards: 4, budget: annBudget(len(corpus), 1), kept: halves[1].kept,
	}); err != nil {
		return err
	}
	f := newFlat(corpus)
	r.gate(f, r.quality(context.Background(), admin, f, annBudget(len(corpus), 1)))
	r.exportSpans(tr)
	return nil
}
