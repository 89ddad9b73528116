package engine

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// testPolicy builds a deterministic constant-action policy, the same
// construction as core's RLS tests: zeroed weights and a bias bump on the
// chosen action.
func testPolicy(action, k int, useSuffix, simplify bool) *rl.Policy {
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
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

func wantInvalidArgument(t *testing.T, err error, context string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error", context)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInvalidArgument {
		t.Fatalf("%s: error %v is not a typed invalid_argument", context, err)
	}
}

func TestSetPolicyValidates(t *testing.T) {
	e := New(Config{Shards: 2})
	if _, err := e.SetPolicy(nil); err == nil {
		t.Error("nil policy registered")
	} else {
		wantInvalidArgument(t, err, "nil policy")
	}
	bad := testPolicy(0, 1, false, true)
	bad.K = -3
	_, err := e.SetPolicy(bad)
	wantInvalidArgument(t, err, "negative-K policy")
	if _, ok := e.Policy(); ok {
		t.Fatal("rejected swap left a policy registered")
	}

	info, err := e.SetPolicy(testPolicy(0, 2, false, true))
	if err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	if info.Name != "RLS-Skip+" || info.K != 2 || info.Fingerprint == "" {
		t.Errorf("info = %+v", info)
	}
	got, ok := e.Policy()
	if !ok || got != info {
		t.Errorf("Policy() = %+v, %v; want %+v", got, ok, info)
	}
}

func TestRLSResolutionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	e := New(Config{Shards: 2})
	e.Add(randSet(rng, 10))
	q := Query{Q: randTraj(rng, 5), K: 3, Measure: "dtw", Algorithm: "rls"}

	// no policy loaded: both learned names are typed invalid_argument
	for _, algo := range []string{"rls", "rls-skip"} {
		q.Algorithm = algo
		_, _, err := e.TopK(context.Background(), q)
		wantInvalidArgument(t, err, "no-policy "+algo)
	}
	// package-level resolution can never bind a policy
	_, err := ResolveQuery("dtw", "rls", Params{})
	wantInvalidArgument(t, err, "package-level rls")

	// kind mismatches: a split-only policy cannot serve "rls-skip" and a
	// skip policy cannot serve "rls"
	if _, err := e.SetPolicy(testPolicy(0, 0, true, false)); err != nil {
		t.Fatal(err)
	}
	q.Algorithm = "rls-skip"
	_, _, err = e.TopK(context.Background(), q)
	wantInvalidArgument(t, err, "rls-skip with split-only policy")
	if _, err := e.SetPolicy(testPolicy(0, 3, true, true)); err != nil {
		t.Fatal(err)
	}
	q.Algorithm = "rls"
	_, _, err = e.TopK(context.Background(), q)
	wantInvalidArgument(t, err, "rls with skip policy")

	// parameter scoping holds for the learned searches too
	q.Algorithm = "rls-skip"
	q.Params = Params{POSDelay: 3}
	_, _, err = e.TopK(context.Background(), q)
	wantInvalidArgument(t, err, "pos_delay on rls-skip")
}

// directRLS ranks every trajectory's direct core.RLS answer by the global
// ranking order — the flat reference an engine with ScanAll shards must
// reproduce byte-identically.
func directRLS(ts []traj.Trajectory, alg core.RLS, q traj.Trajectory, k int) []Match {
	all := make([]Match, 0, len(ts))
	for id, dt := range ts {
		all = append(all, Match{TrajID: id, Result: alg.Search(dt, q)})
	}
	sort.Slice(all, func(i, j int) bool {
		return core.RankBefore(all[i].Result.Dist, all[i].TrajID, all[i].Result.Interval,
			all[j].Result.Dist, all[j].TrajID, all[j].Result.Interval)
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestEngineRLSMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ts := randSet(rng, 50)
	q := randTraj(rng, 6)
	for _, tc := range []struct {
		algo   string
		policy *rl.Policy
	}{
		{"rls", testPolicy(0, 0, true, false)},
		{"rls", testPolicy(1, 0, true, false)},
		{"rls-skip", testPolicy(2, 2, false, true)},
	} {
		for _, shards := range []int{1, 4} {
			e := New(Config{Shards: shards, Index: ScanAll})
			e.Add(ts)
			if _, err := e.SetPolicy(tc.policy); err != nil {
				t.Fatal(err)
			}
			got, cached, err := e.TopK(context.Background(), Query{
				Q: q, K: 10, Measure: "dtw", Algorithm: tc.algo,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Fatal("first query reported cached")
			}
			want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: tc.policy}, q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s shards=%d: %d matches, want %d", tc.algo, shards, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s shards=%d rank %d: got %+v, want %+v", tc.algo, shards, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPolicySwapInvalidatesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ts := randSet(rng, 40)
	q := randTraj(rng, 6)
	e := New(Config{Shards: 3, Index: ScanAll, CacheSize: 64})
	e.Add(ts)

	never := testPolicy(0, 0, true, false)  // never split
	always := testPolicy(1, 0, true, false) // always split: very different rankings
	if _, err := e.SetPolicy(never); err != nil {
		t.Fatal(err)
	}
	spec := Query{Q: q, K: 8, Measure: "dtw", Algorithm: "rls"}
	first, cached, err := e.TopK(context.Background(), spec)
	if err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	_, cached, err = e.TopK(context.Background(), spec)
	if err != nil || !cached {
		t.Fatalf("repeat query: cached=%v err=%v, want a cache hit", cached, err)
	}

	if _, err := e.SetPolicy(always); err != nil {
		t.Fatal(err)
	}
	swapped, cached, err := e.TopK(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-swap query served from cache: stale-policy ranking")
	}
	want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: always}, q, 8)
	for i := range swapped {
		if swapped[i] != want[i] {
			t.Fatalf("post-swap rank %d: got %+v, want %+v", i, swapped[i], want[i])
		}
	}
	// sanity: the two policies actually disagree, so the test proves a swap
	// changes answers rather than comparing identical rankings
	same := len(first) == len(swapped)
	if same {
		for i := range first {
			if first[i] != swapped[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("never-split and always-split rankings coincide; test is vacuous")
	}

	// swapping back must not resurrect the original entry either: the purge
	// freed it and the generation of trust is the fingerprint
	if _, err := e.SetPolicy(never); err != nil {
		t.Fatal(err)
	}
	back, cached, err := e.TopK(context.Background(), spec)
	if err != nil || cached {
		t.Fatalf("swap-back query: cached=%v err=%v", cached, err)
	}
	for i := range back {
		if back[i] != first[i] {
			t.Fatalf("swap-back rank %d: got %+v, want %+v", i, back[i], first[i])
		}
	}
}

// TestConcurrentPolicySwap hammers queries and swaps concurrently: every
// returned ranking must equal one of the two policies' direct rankings
// (never a mixture), with no races under -race.
func TestConcurrentPolicySwap(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ts := randSet(rng, 30)
	q := randTraj(rng, 5)
	e := New(Config{Shards: 2, Index: ScanAll, CacheSize: 32})
	e.Add(ts)

	pols := []*rl.Policy{testPolicy(0, 0, true, false), testPolicy(1, 0, true, false)}
	m := mustMeasure(t, "dtw")
	wants := make([][]Match, len(pols))
	for i, p := range pols {
		wants[i] = directRLS(ts, core.RLS{M: m, Policy: p}, q, 5)
	}
	if _, err := e.SetPolicy(pols[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.SetPolicy(pols[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 50; i++ {
				got, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "dtw", Algorithm: "rls"})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !matchesEqual(got, wants[0]) && !matchesEqual(got, wants[1]) {
					t.Errorf("ranking matches neither policy: %+v", got)
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	swapper.Wait()
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQualitySampling(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ts := randSet(rng, 40)
	e := New(Config{Shards: 2, Index: ScanAll, QualitySample: 1})
	e.Add(ts)
	if _, err := e.SetPolicy(testPolicy(2, 1, false, true)); err != nil { // skip policy
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		q := Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "rls-skip"}
		if _, _, err := e.TopK(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.RLSQueries != 3 {
		t.Errorf("RLSQueries = %d, want 3", st.RLSQueries)
	}
	if st.QualitySamples != 3 {
		t.Errorf("QualitySamples = %d, want 3", st.QualitySamples)
	}
	if st.ApproxRatio < 1-1e-9 {
		t.Errorf("ApproxRatio = %v, want >= 1 (approximate cannot beat exact)", st.ApproxRatio)
	}
	if st.MeanRank < 1 || st.MeanRank > 6 {
		t.Errorf("MeanRank = %v, want within [1, k+1]", st.MeanRank)
	}
	if st.SkippedFraction <= 0 || st.SkippedFraction >= 1 {
		t.Errorf("SkippedFraction = %v, want in (0, 1) for a constant-skip policy", st.SkippedFraction)
	}
	if !st.PolicyLoaded || st.PolicyName != "RLS-Skip+" || st.PolicyFingerprint == "" {
		t.Errorf("policy stats = %+v", st)
	}

	// a streamed learned query is sampled like a unary one
	before := st.QualitySamples
	q := Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "rls-skip"}
	if _, _, err := e.TopKStream(context.Background(), q, func(Match) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().QualitySamples; got != before+1 {
		t.Errorf("QualitySamples = %d after a streamed rls-skip query, want %d", got, before+1)
	}

	// sampling off: counters must not move
	e2 := New(Config{Shards: 2, Index: ScanAll})
	e2.Add(ts)
	if _, err := e2.SetPolicy(testPolicy(0, 0, true, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.TopK(context.Background(), Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "rls"}); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.QualitySamples != 0 {
		t.Errorf("QualitySamples = %d with sampling disabled", st.QualitySamples)
	}
}

func mustMeasure(t *testing.T, name string) sim.Measure {
	t.Helper()
	m, err := sim.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// statePolicy builds a policy with random (DQN-initialization) weights, so
// its actions depend on the state and different candidates take genuinely
// different walks.
func statePolicy(seed int64, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 8, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(seed)))
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

// TestEngineBatchedMatchesSequential is the serving-level equivalence
// matrix for the learned searches: the engine's scatter over per-shard
// scans sharing one threshold must return the same ranking as the flat
// direct reference, across shard counts and policy kinds.
func TestEngineBatchedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ts := randSet(rng, 60)
	q := randTraj(rng, 6)
	for _, tc := range []struct {
		algo   string
		policy *rl.Policy
	}{
		{"rls", statePolicy(1, 0, true, false)},
		{"rls-skip", statePolicy(2, 3, true, true)},
		{"rls-skip", statePolicy(3, 3, false, true)},
	} {
		want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: tc.policy}, q, 10)
		for _, shards := range []int{1, 3} {
			e := New(Config{Shards: shards, Index: ScanAll})
			e.Add(ts)
			if _, err := e.SetPolicy(tc.policy); err != nil {
				t.Fatal(err)
			}
			got, _, err := e.TopK(context.Background(), Query{
				Q: q, K: 10, Measure: "dtw", Algorithm: tc.algo,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("%s shards=%d: sharded ranking diverges from direct reference\ngot  %+v\nwant %+v",
					tc.algo, shards, got, want)
			}
		}
	}
}

// TestSetPolicyCompiledServesTable registers a compiled table policy and
// checks the whole serving contract: the info and stats surfaces report the
// table, queries answer through it byte-identically to a direct table-backed
// search, and compiling (or recompiling) shifts the serving fingerprint so
// cached network-path rankings cannot be served from the table path.
func TestSetPolicyCompiledServesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ts := randSet(rng, 40)
	q := randTraj(rng, 5)
	p := statePolicy(4, 2, true, true)
	e := New(Config{Shards: 2, Index: ScanAll, CacheSize: 32})
	e.Add(ts)

	plain, err := e.SetPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Compiled || plain.CompiledFingerprint != "" {
		t.Fatalf("uncompiled registration reports a table: %+v", plain)
	}
	spec := Query{Q: q, K: 8, Measure: "dtw", Algorithm: "rls-skip"}
	if _, cached, err := e.TopK(context.Background(), spec); err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	if _, cached, err := e.TopK(context.Background(), spec); err != nil || !cached {
		t.Fatalf("repeat query: cached=%v err=%v, want a cache hit", cached, err)
	}

	info, err := e.SetPolicyCompiled(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Compiled || info.CompileResolution != 8 || info.CompiledFingerprint == "" {
		t.Fatalf("compiled registration info = %+v", info)
	}
	if info.Fingerprint == plain.Fingerprint {
		t.Fatal("compiling the table did not change the serving fingerprint")
	}
	st := e.Stats()
	if !st.PolicyCompiled || st.PolicyCompileResolution != 8 ||
		st.PolicyCompiledFingerprint != info.CompiledFingerprint ||
		st.PolicyCompileDivergence != info.CompileDivergence {
		t.Fatalf("stats do not mirror the compiled registration: %+v", st)
	}

	// the network-path cache entry is unreachable now: the query recomputes
	// through the table and matches a direct table-backed search
	got, cached, err := e.TopK(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-compile query served a network-path ranking from cache")
	}
	table, err := rl.Compile(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := directRLS(ts, core.RLS{M: mustMeasure(t, "dtw"), Policy: p, Table: table}, q, 8)
	if !matchesEqual(got, want) {
		t.Fatalf("table-served ranking diverges from direct table search\ngot  %+v\nwant %+v", got, want)
	}

	// recompiling at another resolution moves the fingerprint again
	re, err := e.SetPolicyCompiled(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint == info.Fingerprint {
		t.Fatal("recompiling at another resolution kept the serving fingerprint")
	}
	// and a failed compile leaves the current registration untouched
	if _, err := e.SetPolicyCompiled(p, 1); err == nil {
		t.Fatal("resolution below the minimum compiled")
	} else {
		wantInvalidArgument(t, err, "resolution below minimum")
	}
	if cur, ok := e.Policy(); !ok || cur != re {
		t.Fatalf("failed compile disturbed the registration: %+v ok=%v", cur, ok)
	}
}

// TestConcurrentCompiledPolicySwap hammers queries against swaps
// that alternate the same policy between network and compiled-table serving:
// every ranking must equal the policy's direct answer (the table is exact
// for a constant policy), with no races under -race.
func TestConcurrentCompiledPolicySwap(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ts := randSet(rng, 30)
	q := randTraj(rng, 5)
	e := New(Config{Shards: 2, Index: ScanAll, CacheSize: 32})
	e.Add(ts)

	pols := []*rl.Policy{testPolicy(0, 0, true, false), testPolicy(1, 0, true, false)}
	m := mustMeasure(t, "dtw")
	wants := make([][]Match, len(pols))
	for i, p := range pols {
		wants[i] = directRLS(ts, core.RLS{M: m, Policy: p}, q, 5)
	}
	if _, err := e.SetPolicy(pols[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// alternate policy AND serving mode: table one round, network
			// the next (a constant policy's table is exact, so the answer
			// set stays two-valued)
			res := 0
			if i%2 == 0 {
				res = 8
			}
			if _, err := e.SetPolicyCompiled(pols[i%2], res); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 50; i++ {
				got, _, err := e.TopK(context.Background(), Query{Q: q, K: 5, Measure: "dtw", Algorithm: "rls"})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !matchesEqual(got, wants[0]) && !matchesEqual(got, wants[1]) {
					t.Errorf("ranking matches neither policy: %+v", got)
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	swapper.Wait()
}

// TestSetPolicyCompiledRejectsNegativeResolution pins the boot path to the
// admin endpoint's contract: a negative compile resolution is a typed
// invalid_argument, not a silent "serve the network", and the current
// registration keeps serving.
func TestSetPolicyCompiledRejectsNegativeResolution(t *testing.T) {
	e := New(Config{Shards: 2})
	p := testPolicy(0, 0, true, false)
	_, err := e.SetPolicyCompiled(p, -3)
	wantInvalidArgument(t, err, "negative compile resolution")
	if _, ok := e.Policy(); ok {
		t.Fatal("rejected compile registered a policy")
	}
	info, err := e.SetPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.SetPolicyCompiled(p, -1)
	wantInvalidArgument(t, err, "negative compile resolution over a registered policy")
	if cur, ok := e.Policy(); !ok || cur != info {
		t.Fatalf("rejected compile disturbed the registration: %+v ok=%v", cur, ok)
	}
}
