package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/server"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

func randTraj(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func randSet(rng *rand.Rand, n int) []traj.Trajectory {
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(14)+8)
	}
	return ts
}

func toWire(ts []traj.Trajectory) []api.Trajectory {
	out := make([]api.Trajectory, len(ts))
	for i, t := range ts {
		out[i] = api.FromTraj(t)
	}
	return out
}

// testNode is one fleet member: a real engine behind a real HTTP server.
type testNode struct {
	eng *engine.Engine
	h   *server.Server
	srv *httptest.Server
}

func startFleet(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		// ScanAll keeps the candidate set full (as the engine's own
		// equivalence tests do) so rankings fill K and bounds have teeth;
		// spatial-index pruning is exercised by the engine tests.
		eng := engine.New(engine.Config{Shards: 2, CacheSize: 64, Index: engine.ScanAll})
		h := server.New(eng, server.Options{})
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{eng: eng, h: h, srv: srv}
	}
	return nodes
}

func fleetURLs(nodes []*testNode) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	return urls
}

func newTestRouter(t *testing.T, nodes []*testNode, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{Nodes: fleetURLs(nodes)}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustLoad(t *testing.T, r *Router, ts []traj.Trajectory) {
	t.Helper()
	resp, err := r.Load(context.Background(), toWire(ts))
	if err != nil {
		t.Fatalf("router load: %v", err)
	}
	for i, id := range resp.IDs {
		if id != i {
			t.Fatalf("router assigned global id %d to trajectory %d; ids must be dense in load order", id, i)
		}
	}
}

// TestRouterRankingsMatchSingleEngine is the distributed-correctness
// anchor: a router over three shard nodes must answer every spec with the
// byte-identical ranking a single engine holding the same corpus produces,
// across measures and algorithms, with bound propagation both on and off.
func TestRouterRankingsMatchSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := randSet(rng, 1000)
	queries := []traj.Trajectory{randTraj(rng, 6), randTraj(rng, 9)}

	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)

	for _, propagate := range []bool{true, false} {
		nodes := startFleet(t, 3)
		r := newTestRouter(t, nodes, func(c *Config) { c.NoBoundPropagation = !propagate })
		mustLoad(t, r, ts)
		for _, measure := range []string{"dtw", "frechet"} {
			for _, algo := range []string{"exacts", "pss", "pos"} {
				for qi, q := range queries {
					spec := api.QuerySpec{Query: api.FromTraj(q), K: 25, Measure: measure, Algorithm: algo}
					want := single.QueryOne(context.Background(), spec)
					got := r.QueryOne(context.Background(), spec)
					if want.Error != nil || got.Error != nil {
						t.Fatalf("%s/%s q%d propagate=%v: errors %v / %v", measure, algo, qi, propagate, want.Error, got.Error)
					}
					if got.Partial != nil {
						t.Fatalf("%s/%s q%d: unexpected partial %+v", measure, algo, qi, got.Partial)
					}
					if !reflect.DeepEqual(got.Matches, want.Matches) || got.Total != want.Total {
						t.Fatalf("%s/%s q%d propagate=%v: router ranking diverged from single engine\ngot  %+v\nwant %+v",
							measure, algo, qi, propagate, got.Matches, want.Matches)
					}
				}
			}
		}
		if propagate {
			st, err := r.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Router.BoundsPropagated == 0 {
				t.Error("multi-group scatter propagated no bounds")
			}
			if st.Router.Queries == 0 || st.Router.Groups != 3 {
				t.Errorf("router stats off: %+v", st.Router)
			}
		}
	}
}

// TestRouterSpecDimensions checks the global handling of the spec
// dimensions the router must apply after the merge — paging, distinct
// collapsing over cross-load duplicates, spatial filters — and the
// per-node k clamp when a group holds fewer than k trajectories.
func TestRouterSpecDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	base := randSet(rng, 60)
	ts := append(append([]traj.Trajectory{}, base...), base...) // every trajectory loaded twice

	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	q := api.FromTraj(randTraj(rng, 6))
	f := &api.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	specs := []api.QuerySpec{
		{Query: q, K: 20, Offset: 3, Limit: 5},
		{Query: q, K: 20, Distinct: true},
		{Query: q, K: 10, Filter: f, Algorithm: "pss"},
		{Query: q, K: 120}, // exceeds every group's share: per-node k clamps
	}
	resp, err := r.Query(context.Background(), api.Query{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	wantResp, err := single.Query(context.Background(), api.Query{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		got, want := resp.Results[i], wantResp.Results[i]
		if got.Error != nil || want.Error != nil {
			t.Fatalf("spec %d: errors %v / %v", i, got.Error, want.Error)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Total != want.Total {
			t.Errorf("spec %d: router diverged\ngot  %+v (total %d)\nwant %+v (total %d)",
				i, got.Matches, got.Total, want.Matches, want.Total)
		}
	}
}

// TestRouterStreamMatchesUnary checks the streamed scatter on every spec
// dimension: the summary must carry the same authoritative ranking, total
// and cache flag as the unary path (and the ranking of the single engine),
// with provisional records preceding it.
func TestRouterStreamMatchesUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	base := randSet(rng, 60)
	ts := append(append([]traj.Trajectory{}, base...), base...) // every trajectory loaded twice
	single := engine.New(engine.Config{Shards: 4, Index: engine.ScanAll})
	single.Add(ts)
	// the streamed and the unary path each get a fleet of their own, so
	// both see the same node-cache state on every pass (the second pass of
	// a spec is always served warm)
	rs := newTestRouter(t, startFleet(t, 3), nil)
	ru := newTestRouter(t, startFleet(t, 3), nil)
	mustLoad(t, rs, ts)
	mustLoad(t, ru, ts)

	ctx := context.Background()
	q := api.FromTraj(randTraj(rng, 7))
	// a caller-supplied bound: the unbounded ranking's k-th-best distance,
	// the tightest bound that cannot change the ranking
	bound := single.QueryOne(ctx, api.QuerySpec{Query: q, K: 12}).Matches[11].Dist
	f := &api.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	specs := []struct {
		name string
		spec api.QuerySpec
	}{
		{"page", api.QuerySpec{Query: q, K: 20, Offset: 3, Limit: 5}},
		{"distinct", api.QuerySpec{Query: q, K: 20, Distinct: true}},
		{"filter-pss", api.QuerySpec{Query: q, K: 10, Filter: f, Algorithm: "pss"}},
		{"k-above-share", api.QuerySpec{Query: q, K: 120}},
		{"frechet", api.QuerySpec{Query: q, K: 12, Measure: "frechet"}},
		{"bound", api.QuerySpec{Query: q, K: 12, Bound: &bound}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			want := single.QueryOne(ctx, tc.spec)
			for _, pass := range []string{"cold", "warm"} {
				one := ru.QueryOne(ctx, tc.spec)
				var provisional []api.Match
				sum, err := rs.QueryStream(ctx, tc.spec, func(m api.Match) error {
					provisional = append(provisional, m)
					return nil
				})
				if err != nil || one.Error != nil || want.Error != nil {
					t.Fatalf("%s: errors %v / %v / %v", pass, err, one.Error, want.Error)
				}
				if !reflect.DeepEqual(sum.Matches, want.Matches) || sum.Total != want.Total {
					t.Fatalf("%s: stream summary diverged from single engine\ngot  %+v\nwant %+v", pass, sum.Matches, want.Matches)
				}
				if !reflect.DeepEqual(sum.Matches, one.Matches) || sum.Total != one.Total || sum.Cached != one.Cached {
					t.Fatalf("%s: stream summary diverged from QueryOne\ngot  %+v (total %d cached %v)\nwant %+v (total %d cached %v)",
						pass, sum.Matches, sum.Total, sum.Cached, one.Matches, one.Total, one.Cached)
				}
				if sum.Partial != nil {
					t.Fatalf("%s: unexpected partial: %+v", pass, sum.Partial)
				}
				if len(provisional) == 0 || sum.Emitted != len(provisional) {
					t.Fatalf("%s: emitted %d provisional records, summary says %d", pass, len(provisional), sum.Emitted)
				}
				// every final match must have been provisionally emitted at some point
				seen := map[api.Match]bool{}
				for _, m := range provisional {
					seen[m] = true
				}
				for _, m := range sum.Matches {
					if !seen[m] {
						t.Errorf("%s: final match %+v never streamed provisionally", pass, m)
					}
				}
			}
		})
	}

	// an emit error aborts the stream and returns unchanged
	boom := errors.New("boom")
	if _, err := rs.QueryStream(ctx, specs[0].spec, func(api.Match) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error came back as %v, want boom", err)
	}
}

// TestRouterStreamAbortKeepsNodesHealthy aborts a stream from its emit
// while the pilot node is still streaming: the canceled attempt says
// nothing about the node, so /v2/stats must not blame it.
func TestRouterStreamAbortKeepsNodesHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	r := newTestRouter(t, startFleet(t, 2), nil)
	mustLoad(t, r, randSet(rng, 400))
	ctx := context.Background()
	// k well above the router's 64-match forwarding buffer keeps the pilot
	// node's stream in flight when the first emit fails
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 150}
	boom := errors.New("boom")
	if _, err := r.QueryStream(ctx, spec, func(api.Match) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error came back as %v, want boom", err)
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range st.Router.Nodes {
		if ns.Failures != 0 || !ns.Healthy || ns.Breaker != "closed" {
			t.Errorf("node %s after a consumer abort: failures %d, healthy %v, breaker %s; want 0, true, closed",
				ns.Node, ns.Failures, ns.Healthy, ns.Breaker)
		}
	}
	if st.Router.Nodes[0].Requests+st.Router.Nodes[1].Requests == 0 {
		t.Error("the aborted stream reached no node")
	}
}

// TestRouterPartialOnDeadNode kills one of two shard groups and checks the
// query degrades to a typed partial answer — the exact ranking over the
// surviving group's corpus — instead of failing.
func TestRouterPartialOnDeadNode(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ts := randSet(rng, 120)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)

	nodes[0].srv.Close()
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 10}
	res := r.QueryOne(context.Background(), spec)
	if res.Error != nil {
		t.Fatalf("dead shard group failed the query: %v", res.Error)
	}
	if res.Partial == nil {
		t.Fatal("dead shard group produced no partial summary")
	}
	if res.Partial.NodesTotal != 2 || res.Partial.NodesFailed != 1 || len(res.Partial.Failures) != 1 {
		t.Fatalf("partial summary off: %+v", res.Partial)
	}
	if res.Partial.Failures[0].Node != nodes[0].srv.URL {
		t.Errorf("partial blames %q, want %q", res.Partial.Failures[0].Node, nodes[0].srv.URL)
	}

	// the degraded answer must be the exact ranking over the survivor
	survivor := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	r.mu.RLock()
	var kept []traj.Trajectory
	for _, gid := range r.groups[1].globals {
		kept = append(kept, ts[gid])
	}
	r.mu.RUnlock()
	survivor.Add(kept)
	wantLocal := survivor.QueryOne(context.Background(), spec)
	if len(res.Matches) != len(wantLocal.Matches) {
		t.Fatalf("degraded ranking has %d matches, survivor engine %d", len(res.Matches), len(wantLocal.Matches))
	}
	for i := range res.Matches {
		got, want := res.Matches[i], wantLocal.Matches[i]
		if got.Dist != want.Dist || got.Start != want.Start || got.End != want.End {
			t.Errorf("rank %d: degraded %+v vs survivor %+v", i, got, want)
		}
	}

	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.PartialResults == 0 {
		t.Error("partial answer not counted in router stats")
	}
	if st.Router.Nodes[0].Healthy {
		t.Error("dead node still marked healthy after failed contact")
	}

	// with every group dead the query must fail, not answer empty
	nodes[1].srv.Close()
	res = r.QueryOne(context.Background(), spec)
	if res.Error == nil {
		t.Fatal("query answered with the whole fleet dead")
	}
	if err := r.Health(context.Background()); err == nil {
		t.Fatal("health reported ok with the whole fleet dead")
	}
}

// TestRouterReplicaFailover checks replication: with two replicas per
// group, a dead replica costs nothing — queries fail over and stay
// complete (no partial), and both replicas hold every trajectory.
func TestRouterReplicaFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ts := randSet(rng, 80)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.NoHedge = true
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)
	if n0, n1 := nodes[0].eng.Len(), nodes[1].eng.Len(); n0 != len(ts) || n1 != len(ts) {
		t.Fatalf("replicas hold %d / %d trajectories, want %d each", n0, n1, len(ts))
	}

	nodes[0].srv.Close()
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 8}
	for i := 0; i < 3; i++ { // rotation makes the dead replica primary sometimes
		res := r.QueryOne(context.Background(), spec)
		if res.Error != nil {
			t.Fatalf("query %d failed despite a live replica: %v", i, res.Error)
		}
		if res.Partial != nil {
			t.Fatalf("query %d degraded despite a live replica: %+v", i, res.Partial)
		}
	}
	if err := r.Health(context.Background()); err != nil {
		t.Fatalf("health failed with one live replica per group: %v", err)
	}
}

// TestRouterFailsOverRecoveringNode checks the durability follow-through:
// a node replaying its persistent log answers data-path requests with 503
// overloaded, which the router must treat as degradable — failing over to
// the ready replica with complete (non-partial) answers — while fleet
// stats surface the node's self-reported "recovering" state.
func TestRouterFailsOverRecoveringNode(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ts := randSet(rng, 80)
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.NoHedge = true
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	mustLoad(t, r, ts)

	nodes[0].h.SetReady(false) // node 0 is now "replaying its log"
	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 8}
	for i := 0; i < 3; i++ { // rotation makes the recovering replica primary sometimes
		res := r.QueryOne(context.Background(), spec)
		if res.Error != nil {
			t.Fatalf("query %d failed despite a ready replica: %v", i, res.Error)
		}
		if res.Partial != nil {
			t.Fatalf("query %d degraded despite a ready replica: %+v", i, res.Partial)
		}
	}

	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Router.Nodes[0].State; got != api.StateRecovering {
		t.Errorf("recovering node reports state %q, want %q", got, api.StateRecovering)
	}
	if got := st.Router.Nodes[1].State; got != api.StateReady {
		t.Errorf("ready node reports state %q, want %q", got, api.StateReady)
	}

	// recovery finishes: the node serves again and stats flip back
	nodes[0].h.SetReady(true)
	if res := r.QueryOne(context.Background(), spec); res.Error != nil || res.Partial != nil {
		t.Fatalf("query after recovery: err=%v partial=%+v", res.Error, res.Partial)
	}
	st, err = r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Router.Nodes[0].State; got != api.StateReady {
		t.Errorf("recovered node reports state %q, want %q", got, api.StateReady)
	}
}

// TestRouterHedgedRequests wraps one replica in a long delay and checks
// the hedge timer rescues the query via the other replica, fast.
func TestRouterHedgedRequests(t *testing.T) {
	eng0 := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	eng1 := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	h0 := server.New(eng0, server.Options{})
	delay := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		if rq.URL.Path != "/v1/trajectories" { // loads pass; queries hang until released
			select {
			case <-delay:
			case <-rq.Context().Done():
				return
			}
		}
		h0.ServeHTTP(w, rq)
	}))
	defer slow.Close()
	defer close(delay)
	fast := httptest.NewServer(server.New(eng1, server.Options{}))
	defer fast.Close()

	r, err := New(Config{
		Nodes:       []string{slow.URL, fast.URL},
		Replication: 2,
		HedgeMin:    5 * time.Millisecond,
		NodeTimeout: 2 * time.Second, // the stalled replica must not stall best-effort fan-outs
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	ts := randSet(rng, 40)
	mustLoad(t, r, ts)

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 5}
	start := time.Now()
	res := r.QueryOne(context.Background(), spec)
	if res.Error != nil {
		t.Fatalf("hedged query failed: %v", res.Error)
	}
	if res.Partial != nil {
		t.Fatalf("hedged query degraded: %+v", res.Partial)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hedge did not rescue the query (took %v)", took)
	}
	if r.hedges.Load() == 0 {
		t.Fatal("no hedge launched against the stalled primary")
	}
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.Hedges == 0 {
		t.Error("hedges missing from router stats")
	}
}

// TestRouterBoundPropagationPrunes checks the wire bound does real work on
// the remote shards: after a propagated scatter, the non-pilot nodes must
// report lb_skipped > 0 — candidates dropped against the shipped global
// k-th-best before any dynamic programming ran.
func TestRouterBoundPropagationPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ts := randSet(rng, 600)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	spec := api.QuerySpec{Query: api.FromTraj(randTraj(rng, 6)), K: 3, Algorithm: "pss"}
	if res := r.QueryOne(context.Background(), spec); res.Error != nil {
		t.Fatal(res.Error)
	}
	if r.bounds.Load() == 0 {
		t.Fatal("scatter shipped no bound")
	}
	var skipped int64
	for _, n := range nodes {
		skipped += n.eng.Stats().LBSkipped
	}
	if skipped == 0 {
		t.Error("no shard pruned against the propagated bound (lb_skipped == 0 fleet-wide)")
	}
}

// modelCase drives the fleet model-admin tests through the same steps for
// each hot-swappable model kind; fingerprints stand in for the kind's
// wire description.
type modelCase struct {
	kind string
	// save serializes the model the tests broadcast.
	save func(io.Writer) error
	// header is a well-formed file header of this kind after its tag,
	// so that a wrong tag in front of it is echoed in the parse error.
	header string
	// swap and read call the router's broadcast and readback.
	swap func(r *Router, path, b64 string) (string, error)
	read func(r *Router) (string, error)
	// registered reads one node's fingerprint directly off its engine.
	registered func(*engine.Engine) (string, bool)
	// diverge registers a different model on one node behind the router.
	diverge func(*engine.Engine) error
}

func modelCases() []modelCase {
	return []modelCase{
		{
			kind:   "policy",
			save:   testPolicy(1, 0, true).Save,
			header: " 0 0 0\n",
			swap: func(r *Router, path, b64 string) (string, error) {
				info, err := r.SwapPolicy(context.Background(), api.PolicySwapRequest{Path: path, PolicyB64: b64})
				if err != nil {
					return "", err
				}
				return info.Fingerprint, nil
			},
			read: func(r *Router) (string, error) {
				info, err := r.Policy(context.Background())
				if err != nil {
					return "", err
				}
				return info.Fingerprint, nil
			},
			registered: func(e *engine.Engine) (string, bool) {
				info, ok := e.Policy()
				return info.Fingerprint, ok
			},
			diverge: func(e *engine.Engine) error {
				_, err := e.SetPolicy(testPolicy(0, 2, false))
				return err
			},
		},
		{
			kind:   "encoder",
			save:   t2vec.NewRandomModel(4, 1).Save,
			header: " 0 0 0 1 1\n",
			swap: func(r *Router, path, b64 string) (string, error) {
				info, err := r.SwapEncoder(context.Background(), api.EncoderSwapRequest{Path: path, EncoderB64: b64})
				if err != nil {
					return "", err
				}
				return info.Fingerprint, nil
			},
			read: func(r *Router) (string, error) {
				info, err := r.Encoder(context.Background())
				if err != nil {
					return "", err
				}
				return info.Fingerprint, nil
			},
			registered: func(e *engine.Engine) (string, bool) {
				info, ok := e.Encoder()
				return info.Fingerprint, ok
			},
			diverge: func(e *engine.Engine) error {
				_, err := e.SetEncoder(t2vec.NewRandomModel(4, 2))
				return err
			},
		},
	}
}

// writeFile writes a file in the test's temporary directory and returns
// its path.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func wantCode(t *testing.T, what string, err error, code api.Code) {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != code {
		t.Errorf("%s: error %v, want typed %s", what, err, code)
	}
}

// TestRouterModelBroadcast swaps each model kind through the router and
// checks every node serves it, fingerprints agree, a path swap ships the
// router-local file, and a diverged fleet is detected.
func TestRouterModelBroadcast(t *testing.T) {
	for _, mc := range modelCases() {
		t.Run(mc.kind, func(t *testing.T) {
			nodes := startFleet(t, 3)
			r := newTestRouter(t, nodes, nil)

			_, err := mc.read(r)
			wantCode(t, "readback before any registration", err, api.CodeNotFound)

			var buf bytes.Buffer
			if err := mc.save(&buf); err != nil {
				t.Fatal(err)
			}
			fp, err := mc.swap(r, "", base64.StdEncoding.EncodeToString(buf.Bytes()))
			if err != nil {
				t.Fatalf("broadcast swap: %v", err)
			}
			if fp == "" {
				t.Fatal("swap returned no fingerprint")
			}
			for i, n := range nodes {
				if got, ok := mc.registered(n.eng); !ok || got != fp {
					t.Fatalf("node %d serves fingerprint %q (registered %v), want %q", i, got, ok, fp)
				}
			}
			if got, err := mc.read(r); err != nil || got != fp {
				t.Fatalf("router readback: %q, %v", got, err)
			}

			// the same bytes named by a router-local path serve the same model
			path := writeFile(t, "model", buf.Bytes())
			if got, err := mc.swap(r, path, ""); err != nil || got != fp {
				t.Fatalf("path swap: %q, %v (want %q)", got, err, fp)
			}

			// diverge one node behind the router's back: the readback must
			// refuse to pretend the fleet is consistent
			if err := mc.diverge(nodes[2].eng); err != nil {
				t.Fatal(err)
			}
			_, err = mc.read(r)
			wantCode(t, "diverged fleet readback", err, api.CodeInternal)

			// swap requests must name exactly one source
			_, err = mc.swap(r, "", "")
			wantCode(t, "empty swap request", err, api.CodeInvalidArgument)
		})
	}
}

// TestRouterModelSwapErrors pins the broadcast's error contract for each
// model kind: a router-local path fails like a node's own path (not_found
// when missing, internal for unreadable, a redacted invalid_argument that
// never echoes the file's contents when it holds no model), a swap every
// node rejects stays invalid_argument, and only a mixed outcome — here one
// node down while the others swap — is internal.
func TestRouterModelSwapErrors(t *testing.T) {
	const secret = "TOPSECRET-token-123"
	for _, mc := range modelCases() {
		t.Run(mc.kind, func(t *testing.T) {
			junk := writeFile(t, "junk", []byte(secret+mc.header))
			nodes := startFleet(t, 2)
			r := newTestRouter(t, nodes, nil)
			cases := []struct {
				name, path, b64 string
				code            api.Code
			}{
				{"both fields", "x", "eA==", api.CodeInvalidArgument},
				{"missing file", "/nonexistent/model", "", api.CodeNotFound},
				{"unreadable file", t.TempDir(), "", api.CodeInternal},
				{"router-local non-model file", junk, "", api.CodeInvalidArgument},
				{"bad base64", "", "!!!", api.CodeInvalidArgument},
				{"bytes every node rejects", "", base64.StdEncoding.EncodeToString([]byte("nope")), api.CodeInvalidArgument},
			}
			for _, c := range cases {
				_, err := mc.swap(r, c.path, c.b64)
				wantCode(t, c.name, err, c.code)
				if err != nil && strings.Contains(err.Error(), secret) {
					t.Errorf("%s: error leaks the file's contents: %v", c.name, err)
				}
				for i, n := range nodes {
					if _, ok := mc.registered(n.eng); ok {
						t.Fatalf("%s: node %d registered a model", c.name, i)
					}
				}
			}

			var buf bytes.Buffer
			if err := mc.save(&buf); err != nil {
				t.Fatal(err)
			}
			nodes[1].srv.Close()
			_, err := mc.swap(r, "", base64.StdEncoding.EncodeToString(buf.Bytes()))
			wantCode(t, "swap with one node down", err, api.CodeInternal)
			if _, ok := mc.registered(nodes[0].eng); !ok {
				t.Fatal("the reachable node did not swap")
			}
		})
	}
}

// TestRouterPolicyPathSwapCompiles checks a path swap keeps the request's
// compile resolution: every node must serve the compiled table.
func TestRouterPolicyPathSwapCompiles(t *testing.T) {
	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, nil)
	var buf bytes.Buffer
	if err := testPolicy(1, 0, true).Save(&buf); err != nil {
		t.Fatal(err)
	}
	req := api.PolicySwapRequest{Path: writeFile(t, "policy", buf.Bytes()), CompileResolution: 8}
	info, err := r.SwapPolicy(context.Background(), req)
	if err != nil {
		t.Fatalf("path swap: %v", err)
	}
	if !info.Compiled || info.CompileResolution != 8 {
		t.Fatalf("router reports %+v, want a table at resolution 8", info)
	}
	for i, n := range nodes {
		if ni, ok := n.eng.Policy(); !ok || !ni.Compiled || ni.CompileResolution != 8 {
			t.Fatalf("node %d serves %+v, want a table at resolution 8", i, ni)
		}
	}
}

// testPolicy builds a deterministic constant-action policy (the same
// construction as the engine and core tests).
func testPolicy(action, k int, useSuffix bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 2, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(1)))
	for _, l := range net.Layers {
		for i := range l.W.W {
			l.W.W[i] = 0
		}
		for i := range l.B.W {
			l.B.W[i] = -5
		}
	}
	net.Layers[len(net.Layers)-1].B.W[action] = 5
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: k > 0}
}

// TestRouterGetTrajectory checks global-ID translation round-trips.
func TestRouterGetTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ts := randSet(rng, 50)
	nodes := startFleet(t, 3)
	r := newTestRouter(t, nodes, nil)
	mustLoad(t, r, ts)

	for _, id := range []int{0, 7, 23, 49} {
		rec, err := r.GetTrajectory(context.Background(), id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if rec.ID != id {
			t.Fatalf("fetch %d returned id %d", id, rec.ID)
		}
		got, aerr := rec.Trajectory.ToTraj()
		if aerr != nil {
			t.Fatal(aerr)
		}
		if !got.Equal(ts[id]) {
			t.Fatalf("fetch %d returned the wrong trajectory", id)
		}
	}
	if _, err := r.GetTrajectory(context.Background(), 50); err == nil {
		t.Fatal("out-of-range id fetched")
	}
	var ae *api.Error
	if _, err := r.GetTrajectory(context.Background(), -1); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("negative id: %v, want typed not_found", err)
	}
}

// TestRouterValidation checks the router-level wire checks reject bad
// specs and configs with typed errors before any node is contacted.
func TestRouterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New(Config{Nodes: []string{"a", "b", "c"}, Replication: 2}); err == nil {
		t.Fatal("replication 2 over 3 nodes accepted")
	}

	nodes := startFleet(t, 2)
	r := newTestRouter(t, nodes, nil)
	rng := rand.New(rand.NewSource(50))
	mustLoad(t, r, randSet(rng, 10))
	q := api.FromTraj(randTraj(rng, 5))

	neg := -1.0
	for name, spec := range map[string]api.QuerySpec{
		"zero k":         {Query: q},
		"k beyond store": {Query: q, K: 11},
		"bad offset":     {Query: q, K: 3, Offset: -1},
		"bad limit":      {Query: q, K: 3, Limit: -2},
		"negative bound": {Query: q, K: 3, Bound: &neg},
		"empty query":    {K: 3},
	} {
		res := r.QueryOne(context.Background(), spec)
		if res.Error == nil || res.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: error %+v, want typed invalid_argument", name, res.Error)
		}
	}
	// unknown measures are the nodes' call — still a deterministic typed
	// rejection, never a partial
	res := r.QueryOne(context.Background(), api.QuerySpec{Query: q, K: 3, Measure: "nope"})
	if res.Error == nil || res.Error.Code != api.CodeInvalidArgument || res.Partial != nil {
		t.Errorf("unknown measure: %+v", res)
	}
	if _, err := r.Query(context.Background(), api.Query{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := r.Load(context.Background(), nil); err == nil {
		t.Error("empty load accepted")
	}
}
