package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/traj"
)

// workload is one traffic mix. Rates are offered requests per second.
type workload struct {
	Name string
	Why  string
	// Nominal is the rate query_p50_ms / query_p99_ms are measured at; it
	// is also the ladder's first step.
	Nominal float64
	// Ladder holds the further offered rates, ascending. The ladder stops
	// at the first step that misses the SLO.
	Ladder []float64
	// SLOMS is the p99 latency limit of the ladder's pass rule.
	SLOMS float64
	run   func(r *runner) error
}

var workloads = []*workload{
	{
		Name:    "fleet-scan",
		Why:     "2 nodes + router, every query unique so node caches miss: LB cascade, DP kernels, candidate generation (spatial and ann) and the rl walk do the work",
		Nominal: 80, Ladder: []float64{120, 160}, SLOMS: 250,
	},
	{
		Name:    "fleet-hot",
		Why:     "same fleet, Zipf-drawn specs from a pool far smaller than the node cache: api JSON, server/router handlers, fan-out/merge and cache lookups do the work",
		Nominal: 400, Ladder: []float64{800, 1200}, SLOMS: 50,
	},
	{
		Name:    "ingest-live",
		Why:     "one durable node stream-loading a growing corpus while unique dtw pss queries arrive at a low fixed rate: the write path, and whether writes stall reads",
		Nominal: 20, SLOMS: 500,
	},
}

func init() {
	workloads[0].run = (*runner).fleetScan
	workloads[1].run = (*runner).fleetHot
	workloads[2].run = (*runner).ingestLive
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// runner carries one run's configuration, inputs and accumulating report.
type runner struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	sz      sizes
	in      *inputs
	rep     *report
	conns   int
	ref     *refClock
}

// drainLimit bounds how long a phase waits for its stragglers.
const drainLimit = 5 * time.Second

// requestTimeout caps one generated request.
const requestTimeout = 10 * time.Second

// nominalShare is the part of the timed window spent at the nominal rate;
// the ladder's further steps share the rest.
const nominalShare = 0.75

// ---------------------------------------------------------------- fleets

// bootFleets performs the configured number of set-ups, reports their
// median CPU and wall-clock time and load rate, and keeps the last fleet.
func (r *runner) bootFleets(warm func(*client.Client) error) (*deployment, error) {
	var setups, walls, rates []float64
	var d *deployment
	for i := 0; i < r.sz.Setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = bootFleet(r.in, nil, warm); err != nil {
			return nil, err
		}
		setups = append(setups, r.ref.scaledCPU(d.cpu, d.at, d.at.Add(d.setup)).Seconds())
		walls = append(walls, d.setup.Seconds())
		rates = append(rates, float64(d.loaded)/d.loadS.Seconds())
		r.rep.attempt(len(r.in.wireCorpus)/loadBatch+1, 0)
		if d.loaded != len(r.in.corpus) {
			r.rep.fail(fmt.Errorf("fleet acknowledged %d of %d loaded trajectories", d.loaded, len(r.in.corpus)))
		}
	}
	r.rep.set("setup_s", median(setups), len(setups))
	r.rep.set("setup_wall_s", median(walls), len(walls))
	r.rep.set("ingest_rps", median(rates), len(rates))
	return d, nil
}

// ladder drives the workload's fixed rate ladder with send(ctx, i) and
// reports the CPU cost per query over every step, the nominal step's
// percentiles and qps_at_slo.
func (r *runner) ladder(send func(ctx context.Context, step, i int) error) []step {
	rates := append([]float64{r.w.Nominal}, r.w.Ladder...)
	nominalDur := time.Duration(float64(r.seconds) * nominalShare)
	restDur := r.seconds - nominalDur
	if len(rates) > 1 {
		restDur /= time.Duration(len(rates) - 1)
	}
	var steps []step
	best := 0.0
	var rawCPU, scaledCPU time.Duration
	ops := 0
	for si, rate := range rates {
		dur := restDur
		if si == 0 {
			dur = nominalDur
		}
		t0, cpu0 := time.Now(), cpuTime()
		st := runStep(context.Background(), rate, dur, r.conns, drainLimit, nil, func(ctx context.Context, i int) error {
			return send(ctx, si, i)
		})
		cpu := cpuTime() - cpu0
		rawCPU += cpu
		scaledCPU += r.ref.scaledCPU(cpu, t0, time.Now())
		ops += len(st.Out) - st.failures()
		steps = append(steps, st)
		r.rep.attempt(len(st.Out), st.failures())
		r.rep.stepLine(st, r.w.SLOMS, r.conns)
		if !st.meetsSLO(r.w.SLOMS, r.conns) {
			break
		}
		best = st.Achieved
	}
	r.cpuPerOp(rawCPU, scaledCPU, ops)
	r.nominal(steps[0])
	r.rep.set("qps_at_slo", best, len(steps))
	return steps
}

// nominal reports the nominal-rate percentiles and generator lag.
func (r *runner) nominal(st step) {
	lat := st.latenciesMS()
	r.rep.set("query_p50_ms", quantile(lat, 0.5), len(lat))
	r.rep.set("query_p99_ms", quantile(lat, 0.99), len(lat))
	r.rep.set("loadgen.lag_p99_ms", quantile(st.lagsMS(), 0.99), len(lat))
	r.rep.set("error_rate", 0, 0) // filled in by report.finish
}

// cpuPerOp reports the process's CPU time — generator, router, nodes and
// GC together — per completed operation of the timed window, scaled to
// the reference speed (see refClock), and unscaled. Unlike the wall-clock
// latencies it does not grow when the host hands the process less CPU, and
// the scaling takes out part of the host's drift in speed.
func (r *runner) cpuPerOp(cpu, scaled time.Duration, ops int) {
	r.rep.set("cpu_ms_per_op", msPer(scaled, ops), ops)
	r.rep.set("cpu_ms_per_op.unscaled", msPer(cpu, ops), ops)
}

func msPer(d time.Duration, ops int) float64 {
	return float64(d) / float64(time.Millisecond) / float64(max(ops, 1))
}

func (r *runner) heap() {
	runtime.GC()
	runtime.GC() // the second cycle also empties the sync.Pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rep.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)
}

func (r *runner) quality(ctx context.Context, c *client.Client, f *flat, budget int) []answered {
	q, err := qualityPass(ctx, c, r.in, f, r.in.policy, r.sz.Quality, budget)
	r.rep.attempt(q.Attempted, q.Failed)
	if err != nil {
		r.rep.fail(fmt.Errorf("quality pass: %w", err))
		return nil
	}
	r.rep.set("approx_ratio.pss", q.ApproxPSS, q.Queries)
	r.rep.set("approx_ratio.rls-skip", q.ApproxRLS, q.Queries)
	r.rep.set("mean_rank.pss", q.RankPSS, q.Queries)
	r.rep.set("mean_rank.rls-skip", q.RankRLS, q.Queries)
	r.rep.set("rl.skipped_fraction", q.Skipped, q.Queries)
	r.rep.set("recall_at_10.ann", q.Recall, q.Queries)
	// every fourth exacts answer joins the gate's sample
	var sample []answered
	for i := 0; i < len(q.exacts); i += 4 {
		sample = append(sample, q.exacts[i])
	}
	return sample
}

// fleetScan: unique queries of the scan mix on the fleet ladder.
func (r *runner) fleetScan() error {
	var err error
	if r.in, err = makeInputs(r.seed, r.sz, false); err != nil {
		return err
	}
	if r.trace {
		return r.tracedFleet(nil)
	}
	d, err := r.bootFleets(nil)
	if err != nil {
		return err
	}
	defer func() { r.rep.fail(d.close()) }()
	r.heap()
	c := generatorClient(d.url(), r.conns, nil)
	specs := r.scanSpecs()
	kept := collect(8)
	r.ladder(func(ctx context.Context, si, i int) error {
		spec := specs[si][i]
		ms, err := timedQuery(ctx, c, spec)
		if err == nil {
			kept.offer(spec, ms)
		}
		return err
	})
	return r.finishFleet(d, kept.kept)
}

// scanSpecs pre-generates one unique spec per request of every ladder step.
func (r *runner) scanSpecs() [][]api.QuerySpec {
	rates := append([]float64{r.w.Nominal}, r.w.Ladder...)
	out := make([][]api.QuerySpec, len(rates))
	for si, rate := range rates {
		share := nominalShare
		if si > 0 {
			share = (1 - nominalShare) / float64(len(rates)-1)
		}
		n := int(rate*r.seconds.Seconds()*share) + 1
		qs := r.in.queries(n)
		out[si] = make([]api.QuerySpec, n)
		for i, q := range qs {
			out[si][i] = r.in.spec(scanMix[i%len(scanMix)], q, annBudget(r.sz.Corpus, 2))
		}
	}
	return out
}

// hotPool is fleet-hot's spec pool: HotPool specs of the scan mix.
func (r *runner) hotPool() []api.QuerySpec {
	qs := r.in.queries(r.sz.HotPool)
	pool := make([]api.QuerySpec, len(qs))
	for i, q := range qs {
		pool[i] = r.in.spec(scanMix[i%len(scanMix)], q, annBudget(r.sz.Corpus, 2))
	}
	return pool
}

// zipf draws n pool indices with a Zipf(1.1) popularity skew.
func zipf(seed int64, pool, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

func warmer(pool []api.QuerySpec) func(*client.Client) error {
	return func(c *client.Client) error {
		for _, s := range pool {
			if _, err := queryOne(context.Background(), c, s); err != nil {
				return err
			}
		}
		return nil
	}
}

// fleetHot: Zipf draws from a small warmed pool on its own ladder.
func (r *runner) fleetHot() error {
	var err error
	if r.in, err = makeInputs(r.seed, r.sz, false); err != nil {
		return err
	}
	pool := r.hotPool()
	if r.trace {
		return r.tracedFleet(pool)
	}
	d, err := r.bootFleets(warmer(pool))
	if err != nil {
		return err
	}
	defer func() { r.rep.fail(d.close()) }()
	r.heap()
	c := generatorClient(d.url(), r.conns, nil)
	draws := zipf(r.seed, len(pool), int(r.w.Ladder[len(r.w.Ladder)-1]*r.seconds.Seconds())+1)
	kept := collect(8)
	r.ladder(func(ctx context.Context, si, i int) error {
		spec := pool[draws[i%len(draws)]]
		ms, err := timedQuery(ctx, c, spec)
		if err == nil {
			kept.offer(spec, ms)
		}
		return err
	})
	return r.finishFleet(d, kept.kept)
}

// finishFleet runs the quality pass and the correctness gate after the
// timed window.
func (r *runner) finishFleet(d *deployment, kept []answered) error {
	f := newFlat(r.in.corpus)
	kept = append(kept, r.quality(context.Background(), client.New(d.url()), f, annBudget(r.sz.Corpus, 2))...)
	r.gate(f, kept)
	return nil
}

// gate is the run's correctness gate over the kept exacts answers.
func (r *runner) gate(f *flat, kept []answered) {
	n, err := f.gate(kept)
	r.rep.fail(err)
	if err == nil && n == 0 {
		r.rep.fail(errors.New("gate: no exacts ranking was checked"))
	}
	r.rep.line("gate: %d served exacts rankings byte-identical to a flat core.Database over the corpus", n)
}

// timedQuery is one generated request, bounded by requestTimeout.
func timedQuery(ctx context.Context, c *client.Client, spec api.QuerySpec) ([]api.Match, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	return queryOne(ctx, c, spec)
}

// collector keeps the first few served exacts answers per measure for
// the correctness gate; offer is safe for concurrent use.
type collector struct {
	mu    sync.Mutex
	limit int
	per   map[string]int
	kept  []answered
}

func collect(limit int) *collector { return &collector{limit: limit, per: map[string]int{}} }

func (c *collector) offer(spec api.QuerySpec, ms []api.Match) {
	if spec.Algorithm != "exacts" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.per[spec.Measure] < c.limit {
		c.per[spec.Measure]++
		c.kept = append(c.kept, answered{spec, ms})
	}
}

// ---------------------------------------------------------------- ingest

// ingestLive: rounds of one durable node each. In a round, one connection
// streams the stream corpus on top of the seed corpus while the other
// sends unique dtw pss queries at the nominal rate; rounds repeat until
// the window's streaming time is used up, and the last round's node goes
// through the durability gates and the quality pass.
func (r *runner) ingestLive() error {
	var err error
	if r.in, err = makeInputs(r.seed, r.sz, true); err != nil {
		return err
	}
	r.rep.line("flush policy: default segment store (64 MiB segment roll, fsync on roll and on close, no per-append sync)")
	if r.trace {
		return r.tracedIngest()
	}
	rs, err := r.ingestRounds(r.seconds, nil, r.heap)
	defer r.removeDirs(rs.dirs)
	if err != nil {
		if rs.d != nil {
			r.rep.fail(rs.d.close())
		}
		return err
	}
	r.rep.set("setup_s", median(rs.setups), len(rs.setups))
	r.rep.set("setup_wall_s", median(rs.walls), len(rs.walls))
	r.rep.set("ingest_rps", float64(rs.sent)/rs.dur.Seconds(), rs.sent)
	// an operation here is a streamed record or a completed query
	r.cpuPerOp(rs.cpu, rs.scaledCPU, rs.sent+len(rs.st.Out)-rs.st.failures())
	r.rep.line("ingest: %d rounds streamed %d records in %.3fs", len(rs.setups), rs.sent, rs.dur.Seconds())
	r.nominal(rs.st)
	best := 0.0
	if rs.st.meetsSLO(r.w.SLOMS, 1) {
		best = rs.st.Achieved
	}
	r.rep.set("qps_at_slo", best, 1)
	return r.finishIngest(rs.d, rs.last)
}

func (r *runner) removeDirs(dirs []string) {
	for _, dir := range dirs {
		r.rep.fail(os.RemoveAll(dir))
	}
}

// roundsResult merges the rounds of an ingest window.
type roundsResult struct {
	ingestResult
	engine    api.Stats     // engine counters summed over the closed rounds
	cpu       time.Duration // process CPU time of the rounds' streaming windows
	scaledCPU time.Duration // the same, scaled to the reference speed
	setups    []float64     // each round's set-up CPU time, scaled
	walls     []float64     // each round's set-up wall-clock time
	last      int           // records the last round streamed
	d         *deployment   // the last round's node, still serving
	dirs      []string      // every round's data directory
}

// closeRound folds the round node's engine counters into the result and
// closes the node.
func (rs *roundsResult) closeRound() error {
	st, err := client.New(rs.d.url()).Stats(context.Background())
	if err == nil {
		rs.addStats(st.Engine)
	}
	err = errors.Join(err, rs.d.close())
	rs.d = nil
	return err
}

// addStats folds one round node's engine counters into the result.
func (rs *roundsResult) addStats(a api.Stats) {
	e := &rs.engine
	e.Queries += a.Queries
	e.CacheHits += a.CacheHits
	e.CacheMisses += a.CacheMisses
	e.CandidatesSeen += a.CandidatesSeen
	e.LBSkipped += a.LBSkipped
	e.EarlyAbandoned += a.EarlyAbandoned
	e.Shed += a.Shed
	e.DeadlineRejects += a.DeadlineRejects
	e.QueueWaitMS = a.QueueWaitMS
}

// ingestRounds runs ingest rounds until window seconds of streaming are
// used; afterSetup, when set, runs once after the first set-up. The last
// round's node is left open in the result.
func (r *runner) ingestRounds(window time.Duration, tr *tracer, afterSetup func()) (roundsResult, error) {
	var rs roundsResult
	rs.st.Rate = r.w.Nominal
	for rs.dur < window {
		if rs.d != nil {
			if err := rs.closeRound(); err != nil {
				return rs, err
			}
		}
		dir, err := scratchDir(r.out, "ingest-")
		if err != nil {
			return rs, err
		}
		rs.dirs = append(rs.dirs, dir)
		if rs.d, err = bootDurable(r.in, dir, tr); err != nil {
			return rs, err
		}
		r.rep.attempt(len(r.in.wireCorpus)/loadBatch+1, 0)
		rs.setups = append(rs.setups, r.ref.scaledCPU(rs.d.cpu, rs.d.at, rs.d.at.Add(rs.d.setup)).Seconds())
		rs.walls = append(rs.walls, rs.d.setup.Seconds())
		if afterSetup != nil {
			afterSetup()
			afterSetup = nil
		}
		t0, cpu0 := time.Now(), cpuTime()
		iw := r.ingestWindow(rs.d, tr, window-rs.dur)
		cpu := cpuTime() - cpu0
		rs.cpu += cpu
		rs.scaledCPU += r.ref.scaledCPU(cpu, t0, time.Now())
		r.rep.fail(iw.err)
		rs.st.Out = append(rs.st.Out, iw.st.Out...)
		rs.st.Backlog = max(rs.st.Backlog, iw.st.Backlog)
		rs.specs = append(rs.specs, iw.specs...)
		rs.kept = append(rs.kept, iw.kept[:min(len(iw.kept), maxKept-len(rs.kept))]...)
		rs.sent += iw.sent
		rs.last = iw.sent
		rs.dur += iw.dur
	}
	ok := len(rs.st.Out) - rs.st.failures()
	rs.st.Achieved = float64(ok) / rs.dur.Seconds()
	return rs, nil
}

// ingestResult is one ingest window's outcome.
type ingestResult struct {
	st    step            // the query stream
	specs []api.QuerySpec // the queries dispatched, in order
	kept  []answered      // the first answered queries, for the codec pass
	sent  int             // records streamed
	dur   time.Duration   // how long the stream took
	err   error           // the stream's failure, if any
}

// ingestWindow streams the stream corpus through client.LoadStream on one
// connection while the other sends unique dtw pss queries at the nominal
// rate; both stop when the stream is done or the window is over.
func (r *runner) ingestWindow(d *deployment, tr *tracer, limit time.Duration) ingestResult {
	loader := client.New(d.url())
	qs := r.in.queries(int(r.w.Nominal*limit.Seconds()) + 1)
	specs := make([]api.QuerySpec, len(qs))
	for i, q := range qs {
		specs[i] = api.QuerySpec{Query: api.FromTraj(q), K: K, Measure: "dtw", Algorithm: "pss"}
	}
	c := generatorClient(d.url(), 1, tr)
	pr, pw := io.Pipe()
	deadline := time.Now().Add(limit)
	sentCh := make(chan int, 1)
	go func() {
		enc := json.NewEncoder(pw)
		n := 0
		defer func() { sentCh <- n }()
		for _, t := range r.in.stream {
			if time.Now().After(deadline) {
				break
			}
			if err := enc.Encode(api.FromTraj(t)); err != nil {
				return // the reader is gone; LoadStream reports why
			}
			n++
		}
		pw.Close()
	}()
	done := make(chan struct{})
	var res ingestResult
	var mu sync.Mutex
	var resp *api.BulkLoadResponse
	start := time.Now()
	go func() {
		defer close(done)
		resp, res.err = loader.LoadStream(context.Background(), pr)
		res.dur = time.Since(start)
		pr.Close()
	}()
	res.st = runStep(context.Background(), r.w.Nominal, limit, 1, drainLimit, done, func(ctx context.Context, i int) error {
		if tr != nil {
			s, ref := tr.begin(spanRef{}, "client", "pss")
			defer tr.end(s)
			ctx = withSpan(ctx, ref)
		}
		ms, err := timedQuery(ctx, c, specs[i])
		if err == nil && i < maxKept {
			mu.Lock()
			res.kept = append(res.kept, answered{specs[i], ms})
			mu.Unlock()
		}
		return err
	})
	<-done
	res.sent = <-sentCh
	res.specs = specs[:len(res.st.Out)]
	r.rep.attempt(len(res.st.Out)+1, res.st.failures())
	r.rep.stepLine(res.st, r.w.SLOMS, 1)
	if res.err == nil && resp.Loaded != res.sent {
		res.err = fmt.Errorf("server acknowledged %d of %d streamed records", resp.Loaded, res.sent)
	}
	if res.err != nil {
		res.err = fmt.Errorf("stream load: %w", res.err)
		r.rep.attempt(0, 1)
	}
	return res
}

// finishIngest is ingest-live's end of run: the loaded count must equal
// the records sent; the store is closed (fsync + final snapshot) and the
// directory reopened into a fresh engine (recover_s, the median of Setups
// reopenings); the recovered count must match again, and a probe ranking
// taken before the close must come back byte-identical. The quality pass
// and the exacts gate then run on the recovered node.
func (r *runner) finishIngest(d *deployment, sent int) error {
	ctx := context.Background()
	want := len(r.in.corpus) + sent
	probe := api.QuerySpec{Query: api.FromTraj(r.in.queries(1)[0]), K: K, Measure: "dtw", Algorithm: "exacts"}
	c := client.New(d.url())
	before, err := queryOne(ctx, c, probe)
	r.rep.attempt(1, boolInt(err != nil))
	if err != nil {
		return errors.Join(fmt.Errorf("probe before reopen: %w", err), d.close())
	}
	r.rep.fail(r.checkCount(c, want, "loaded"))
	dir := d.dir
	if err := d.close(); err != nil {
		return err
	}
	var recs []float64
	for i := 0; i < r.sz.Setups; i++ {
		start := time.Now()
		if d, _, err = openDurable(r.in, dir, nil); err != nil {
			return err
		}
		recs = append(recs, time.Since(start).Seconds())
		if i < r.sz.Setups-1 {
			if err := d.close(); err != nil {
				return err
			}
		}
	}
	defer func() { r.rep.fail(d.close()) }()
	r.rep.set("recover_s", median(recs), len(recs))
	c = client.New(d.url())
	r.rep.fail(r.checkCount(c, want, "recovered"))
	after, err := queryOne(ctx, c, probe)
	r.rep.attempt(1, boolInt(err != nil))
	if err != nil {
		return fmt.Errorf("probe after reopen: %w", err)
	}
	if err := sameRanking(after, before); err != nil {
		r.rep.fail(fmt.Errorf("ranking changed across the reopen: %w", err))
	} else {
		r.rep.line("gate: probe ranking byte-identical before and after the reopen")
	}
	corpus := append(append([]traj.Trajectory(nil), r.in.corpus...), r.in.stream[:sent]...)
	f := newFlat(corpus)
	kept := r.quality(ctx, c, f, annBudget(len(corpus), 1))
	r.gate(f, append(kept, answered{probe, after}))
	return nil
}

// checkCount compares the node's trajectory count with the records sent.
func (r *runner) checkCount(c *client.Client, want int, what string) error {
	st, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	if st.Engine.Trajectories != want {
		return fmt.Errorf("%s count %d, want %d records sent", what, st.Engine.Trajectories, want)
	}
	r.rep.line("gate: %s count %d equals the records sent", what, want)
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
