package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// constPolicy builds a policy that always takes the given action.
func constPolicy(action, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	actions := 2 + k
	net := nn.NewMLP([]int{dim, 2, actions}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(1)))
	for _, l := range net.Layers {
		for i := range l.W.W {
			l.W.W[i] = 0
		}
		for i := range l.B.W {
			l.B.W[i] = -5
		}
	}
	net.Layers[len(net.Layers)-1].B.W[action] = 5
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

func TestRLSNames(t *testing.T) {
	cases := []struct {
		p    *rl.Policy
		want string
	}{
		{constPolicy(0, 0, true, false), "RLS"},
		{constPolicy(0, 3, true, true), "RLS-Skip"},
		{constPolicy(0, 3, false, true), "RLS-Skip+"},
	}
	for _, c := range cases {
		if got := (RLS{M: sim.DTW{}, Policy: c.p}).Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestRLSNeverSplitEqualsPrefixSuffixScan(t *testing.T) {
	// a never-split policy scans one growing prefix plus all suffixes; the
	// result must be the minimum over those candidates
	rng := rand.New(rand.NewSource(20))
	m := sim.DTW{}
	for trial := 0; trial < 10; trial++ {
		data := randTraj(rng, rng.Intn(12)+2)
		q := randTraj(rng, rng.Intn(5)+1)
		got := (RLS{M: m, Policy: constPolicy(0, 0, true, false)}).Search(data, q)
		want := math.Inf(1)
		n := data.Len()
		for i := 0; i < n; i++ {
			if d := m.Dist(data.Sub(0, i), q); d < want {
				want = d
			}
			if d := m.Dist(data.Sub(i, n-1), q); d < want {
				want = d
			}
		}
		if math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("trial %d: never-split RLS %v, want %v", trial, got.Dist, want)
		}
	}
}

func TestRLSAlwaysSplitEqualsPointScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := sim.DTW{}
	data := randTraj(rng, 10)
	q := randTraj(rng, 4)
	got := (RLS{M: m, Policy: constPolicy(1, 0, false, false)}).Search(data, q)
	want := math.Inf(1)
	for i := 0; i < data.Len(); i++ {
		if d := m.Dist(data.Sub(i, i), q); d < want {
			want = d
		}
	}
	if math.Abs(got.Dist-want) > 1e-9 {
		t.Errorf("always-split RLS %v, want %v", got.Dist, want)
	}
}

func TestRLSValidResults(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]traj.Trajectory, 8)
	queries := make([]traj.Trajectory, 8)
	for i := range data {
		data[i] = randTraj(rng, 15)
		queries[i] = randTraj(rng, 5)
	}
	p, _, err := rl.Train(data, queries, sim.DTW{}, rl.Config{Episodes: 25, Seed: 5, UseSuffix: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	alg := RLS{M: sim.DTW{}, Policy: p}
	exact := ExactS{M: sim.DTW{}}
	for trial := 0; trial < 10; trial++ {
		d := randTraj(rng, rng.Intn(15)+2)
		q := randTraj(rng, rng.Intn(5)+1)
		got := alg.Search(d, q)
		if !got.Interval.Valid(d.Len()) {
			t.Fatalf("invalid interval %v for n=%d", got.Interval, d.Len())
		}
		if ex := exact.Search(d, q); got.Dist < ex.Dist-1e-9 {
			t.Fatalf("RLS dist %v beats exact %v", got.Dist, ex.Dist)
		}
	}
}

func TestRLSSkipSearchAndSkippedFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randTraj(rng, 40)
	q := randTraj(rng, 6)
	// constant skip-1 policy (action 2 with k=1): every step skips one point
	p := constPolicy(2, 1, false, true)
	got := (RLS{M: sim.DTW{}, Policy: p}).Search(data, q)
	if !got.Interval.Valid(data.Len()) {
		t.Fatalf("invalid interval %v", got.Interval)
	}
	frac := SkippedFraction(sim.DTW{}, p, data, q)
	// skipping every other point leaves about half unscanned
	if frac < 0.3 || frac > 0.6 {
		t.Errorf("skipped fraction = %v, want about 0.5", frac)
	}
	// a never-skip policy skips nothing
	if f0 := SkippedFraction(sim.DTW{}, constPolicy(0, 1, false, true), data, q); f0 != 0 {
		t.Errorf("never-skip policy skipped %v", f0)
	}
}

func TestRLSSkipFasterThanRLSOnExplored(t *testing.T) {
	// with state simplification, a skipping policy performs fewer
	// similarity evaluations than a non-skipping one
	rng := rand.New(rand.NewSource(24))
	data := randTraj(rng, 60)
	q := randTraj(rng, 8)
	noSkip := (RLS{M: sim.DTW{}, Policy: constPolicy(0, 3, false, true)}).Search(data, q)
	skip := (RLS{M: sim.DTW{}, Policy: constPolicy(4, 3, false, true)}).Search(data, q) // skip 3 each step
	if skip.Explored >= noSkip.Explored {
		t.Errorf("skipping explored %d, non-skipping %d", skip.Explored, noSkip.Explored)
	}
}

func TestRLSWalkthroughShape(t *testing.T) {
	// Table 4 walk-through shape: a skip policy on a 5-point trajectory with
	// k=1 visits p1, may skip p3, and finishes at p5; the returned interval
	// is valid and its tracked distance matches a real subtrajectory's
	// distance under full-state maintenance.
	data := traj.FromXY(0, 0, 1, 0, 2, 0, 3, 0, 4, 0)
	q := traj.FromXY(1, 0, 2, 0, 3, 0)
	p := constPolicy(2, 1, true, false) // always skip 1, full state
	got := (RLS{M: sim.DTW{}, Policy: p}).Search(data, q)
	if !got.Interval.Valid(5) {
		t.Fatalf("invalid interval %v", got.Interval)
	}
	re := ExactDist(sim.DTW{}, data, q, got)
	if math.Abs(re-got.Dist) > 1e-9 {
		t.Errorf("full-state RLS-Skip tracked dist %v but interval scores %v", got.Dist, re)
	}
}

func TestRLSTrainedBeatsNeverSplitOnStructuredData(t *testing.T) {
	// construct pairs where the query matches a strict interior segment, so
	// splitting is necessary for a good answer; a trained policy should do
	// at least as well as the never-split baseline on average
	rng := rand.New(rand.NewSource(25))
	make2 := func() (traj.Trajectory, traj.Trajectory) {
		q := randTraj(rng, 5)
		pre := randTraj(rng, 5).Translate(30, 30)
		post := randTraj(rng, 5).Translate(-30, -30)
		pts := append(append(append([]geo.Point{}, pre.Points...), q.Points...), post.Points...)
		return traj.New(pts...), q
	}
	var data, queries []traj.Trajectory
	for i := 0; i < 20; i++ {
		d, q := make2()
		data = append(data, d)
		queries = append(queries, q)
	}
	p, _, err := rl.Train(data, queries, sim.DTW{}, rl.Config{Episodes: 120, Seed: 6, UseSuffix: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	trained := RLS{M: sim.DTW{}, Policy: p}
	never := RLS{M: sim.DTW{}, Policy: constPolicy(0, 0, true, false)}
	var sumTrained, sumNever float64
	for i := 0; i < 20; i++ {
		d, q := make2()
		sumTrained += trained.Search(d, q).Dist
		sumNever += never.Search(d, q).Dist
	}
	if sumTrained > sumNever*1.05 {
		t.Errorf("trained policy (%v) notably worse than never-split baseline (%v)", sumTrained, sumNever)
	}
}

func TestRLSSearchGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := randTraj(rng, 8)
	q := randTraj(rng, 3)
	p := constPolicy(0, 0, true, false)
	cases := []struct {
		name string
		alg  RLS
		t, q traj.Trajectory
	}{
		{"nil policy", RLS{M: sim.DTW{}}, data, q},
		{"netless policy", RLS{M: sim.DTW{}, Policy: &rl.Policy{}}, data, q},
		{"empty data", RLS{M: sim.DTW{}, Policy: p}, traj.Trajectory{}, q},
		{"empty query", RLS{M: sim.DTW{}, Policy: p}, data, traj.Trajectory{}},
	}
	for _, c := range cases {
		got := c.alg.Search(c.t, c.q) // must not panic
		if !math.IsInf(got.Dist, 1) || got.Explored != 0 {
			t.Errorf("%s: Search = %+v, want empty Inf result", c.name, got)
		}
	}
	// Name on a nil policy must not panic either
	if got := (RLS{M: sim.DTW{}}).Name(); got != "RLS" {
		t.Errorf("nil-policy Name = %q", got)
	}
}

func TestSkippedFractionGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	data := randTraj(rng, 8)
	q := randTraj(rng, 3)
	if f := SkippedFraction(sim.DTW{}, nil, data, q); f != 0 {
		t.Errorf("nil policy skipped %v", f)
	}
	if f := SkippedFraction(sim.DTW{}, constPolicy(2, 1, false, true), traj.Trajectory{}, q); f != 0 {
		t.Errorf("empty data skipped %v", f)
	}
	if f := SkippedFraction(sim.DTW{}, constPolicy(2, 1, false, true), data, traj.Trajectory{}); f != 0 {
		t.Errorf("empty query skipped %v", f)
	}
}

// TestRLSThresholdScanMatchesUnpruned is the approximate-path counterpart
// of the pruned≡unpruned equivalence matrix: a TopKPrunedSourceCtx ranking
// must be byte-identical to ranking every candidate's direct RLS.Search
// result.
// Full-state policies may skip candidates through the lower-bound cascade
// (their tracked distances are genuine subtrajectory distances, which the
// cascade bounds from below); simplified-state policies must not touch it.
func TestRLSThresholdScanMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ts := make([]traj.Trajectory, 60)
	for i := range ts {
		ts[i] = randTraj(rng, rng.Intn(18)+4)
	}
	q := randTraj(rng, 5)
	for _, p := range []*rl.Policy{
		constPolicy(0, 0, true, false),  // RLS, never split
		constPolicy(1, 0, true, false),  // RLS, always split
		constPolicy(2, 1, false, true),  // RLS-Skip, skip 1, simplified state
		constPolicy(3, 2, false, false), // skip 2, full state
	} {
		alg := RLS{M: sim.DTW{}, Policy: p}
		if _, ok := Algorithm(alg).(ThresholdSearcher); !ok {
			t.Fatal("RLS does not implement ThresholdSearcher")
		}
		db := NewDatabase(ts, false)
		for _, k := range []int{1, 5, 20} {
			var st PruneStats
			got, err := db.TopKPrunedSourceCtx(context.Background(), alg, q, k, nil, NewSharedKth(k), &st, nil)
			if err != nil {
				t.Fatal(err)
			}
			// reference: direct per-trajectory invocation, ranked
			h := topKHeap{k: k}
			for i, dt := range ts {
				h.offer(Match{TrajIndex: i, Result: alg.Search(dt, q)})
			}
			want := h.sorted()
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d matches, want %d", alg.Name(), k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d rank %d: got %+v, want %+v", alg.Name(), k, i, got[i], want[i])
				}
			}
			if p.SimplifyState && st.LBSkipped != 0 {
				t.Errorf("%s: simplified-state scan used the lower-bound cascade (%d LB skips)", alg.Name(), st.LBSkipped)
			}
		}
	}
}

// TestBatchScanEquivalence drives the learned scans the way the engine
// serves them: every TopKPrunedSourceCtx call carries a SharedKth, alone and
// in the concurrent per-shard scatter (concurrentTopK). Across measures,
// policies (network- and table-served) and spatial filters the ranking must
// be byte-identical to the unpruned reference — the shared threshold's
// completion-time post-filter must be invisible in the answer.
func TestBatchScanEquivalence(t *testing.T) {
	data := equivData(300, 18, 41)
	db := NewDatabase(data, false)
	q := equivData(1, 6, 42)[0]
	filter := &geo.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}

	table, err := rl.Compile(noisyPolicy(7, 2, true, true), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	algs := func(m sim.Measure) []RLS {
		return []RLS{
			{M: m, Policy: constPolicy(1, 0, true, false)}, // RLS, always split
			{M: m, Policy: noisyPolicy(3, 3, true, true)},  // RLS-Skip
			{M: m, Policy: noisyPolicy(4, 3, false, true)}, // RLS-Skip+
			{M: m, Table: table},                           // compiled table serving
		}
	}
	const k = 10
	same := func(name string, got, want []Match) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s rank %d: shared-threshold scan %+v != unpruned %+v", name, i, got[i], want[i])
			}
		}
	}
	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
		for ai, alg := range algs(m) {
			for _, f := range []*geo.Rect{nil, filter} {
				name := fmt.Sprintf("%s/%s alg%d filter=%v", m.Name(), alg.Name(), ai, f != nil)
				want := unprunedTopK(t, db, alg, q, k, f)
				var st PruneStats
				got, err := db.TopKPrunedSourceCtx(context.Background(), alg, q, k, f, NewSharedKth(k), &st, nil)
				if err != nil {
					t.Fatal(err)
				}
				same(name, got, want)
				if st.Candidates == 0 {
					t.Fatalf("%s: scan saw no candidates", name)
				}
				if f == nil {
					same(name+" concurrent", concurrentTopK(t, db, alg, q, k, 7), want)
				}
			}
		}
	}
}

// TestBatchScanMidScanThreshold seeds the shared k-th best with a finite tau
// before the scan starts — the cross-shard case where a sibling has already
// found matches — and checks the learned scan's post-filter against it. The
// seed values are uniform, so the external threshold component is constant
// through the scan and the ranking is order-independent: exactly the k best
// unpruned matches at distance <= tau.
func TestBatchScanMidScanThreshold(t *testing.T) {
	data := equivData(200, 16, 51)
	db := NewDatabase(data, false)
	q := equivData(1, 6, 52)[0]
	const k = 8
	alg := RLS{M: sim.DTW{}, Policy: noisyPolicy(9, 2, true, true)}

	// pick tau at the median completed distance so the post-filter really
	// suppresses about half of the candidates mid-scan
	all := unprunedTopK(t, db, alg, q, len(data), nil)
	tau := all[len(all)/2].Result.Dist
	if math.IsInf(tau, 1) {
		t.Fatal("reference scan produced no finite distances")
	}
	var want []Match
	for _, mt := range all {
		if mt.Result.Dist <= tau && len(want) < k {
			want = append(want, mt)
		}
	}
	shared := NewSharedKth(k)
	for i := 0; i < k; i++ {
		shared.Offer(tau)
	}

	var st PruneStats
	got, err := db.TopKPrunedSourceCtx(context.Background(), alg, q, k, nil, shared, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: seeded scan %+v != k best unpruned at <= tau %+v", i, got[i], want[i])
		}
	}
	if st.Abandoned == 0 {
		t.Error("seeded tau never suppressed a completed walk")
	}
}

// TestBatchScanDegenerate drives the learned scan through its guard paths: a
// policy-less algorithm and an empty query rank every candidate at infinite
// distance instead of panicking, and a cancelled context stops the scan
// with the context's error.
func TestBatchScanDegenerate(t *testing.T) {
	db := NewDatabase(equivData(20, 10, 61), false)
	q := equivData(1, 5, 62)[0]
	live := RLS{M: sim.DTW{}, Policy: constPolicy(1, 0, true, false)}
	for ci, c := range []struct {
		alg RLS
		q   traj.Trajectory
	}{{RLS{M: sim.DTW{}}, q}, {RLS{M: sim.DTW{}, Policy: &rl.Policy{}}, q}, {live, traj.Trajectory{}}} {
		got, err := db.TopKPrunedSourceCtx(context.Background(), c.alg, c.q, 5, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("case %d: %d matches, want 5", ci, len(got))
		}
		for _, mt := range got {
			if !math.IsInf(mt.Result.Dist, 1) {
				t.Fatalf("case %d: degenerate scan produced a finite match %+v", ci, mt)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKPrunedSourceCtx(ctx, live, q, 5, nil, nil, nil, nil); err != context.Canceled {
		t.Fatalf("cancelled scan err = %v, want context.Canceled", err)
	}
}

func TestScoreApproxQualityUndefinedRatio(t *testing.T) {
	// when every position's exact answer has distance 0 and the approximate
	// answer missed it, the ratio is undefined but rank/skip still score
	data := traj.FromXY(0, 0, 1, 0, 2, 0)
	q := traj.FromXY(0, 0, 1, 0)
	approx := []RankedAnswer{{ID: 7, T: data, R: Result{Interval: traj.Interval{I: 1, J: 2}, Dist: 1}}}
	exact := []RankedAnswer{{ID: 7, T: data, R: Result{Interval: traj.Interval{I: 0, J: 1}, Dist: 0}}}
	res, ok := ScoreApproxQuality(sim.DTW{}, nil, q, approx, exact)
	if !ok {
		t.Fatal("comparison with non-empty rankings reported not ok")
	}
	if res.RatioPositions != 0 {
		t.Errorf("RatioPositions = %d, want 0", res.RatioPositions)
	}
	if res.MeanRank != 1 {
		t.Errorf("MeanRank = %v, want 1", res.MeanRank)
	}

	// a 0-distance exact answer the approximate search also hit scores 1
	approx[0].R = exact[0].R
	res, ok = ScoreApproxQuality(sim.DTW{}, nil, q, approx, exact)
	if !ok || res.RatioPositions != 1 || res.ApproxRatio != 1 {
		t.Errorf("matched zero-distance position: %+v ok=%v, want ratio 1 over 1 position", res, ok)
	}

	// empty rankings are not scorable
	if _, ok := ScoreApproxQuality(sim.DTW{}, nil, q, nil, exact); ok {
		t.Error("empty approximate ranking scored")
	}
}
