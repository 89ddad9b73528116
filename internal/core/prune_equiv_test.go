package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"simsub/internal/geo"
	"simsub/internal/nn"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// Equivalence tests for the threshold pipeline: across measures,
// algorithms and filters, the pruned scan must produce rankings
// byte-identical to the unpruned reference over a 1000-trajectory store.

func equivData(n, pts int, seed int64) []traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]traj.Trajectory, n)
	for i := range ts {
		p := make([]geo.Point, pts)
		x, y := rng.Float64()*20, rng.Float64()*20
		for j := range p {
			x += rng.NormFloat64() * 0.3
			y += rng.NormFloat64() * 0.3
			p[j] = geo.Point{X: x, Y: y, T: float64(j)}
		}
		ts[i] = traj.Trajectory{ID: i, Points: p}
	}
	return ts
}

// noisyPolicy builds a policy with random (DQN-initialization) weights: its
// actions depend on the state, so different candidates take genuinely
// different walks, exercising the learned scan far harder than a constant
// policy would.
func noisyPolicy(seed int64, k int, useSuffix, simplify bool) *rl.Policy {
	dim := rl.StateDim(useSuffix)
	net := nn.NewMLP([]int{dim, 8, 2 + k}, []nn.Activation{nn.ReLU, nn.Sigmoid}, rand.New(rand.NewSource(seed)))
	return &rl.Policy{Net: net, K: k, UseSuffix: useSuffix, SimplifyState: simplify}
}

// unprunedTopK is the reference ranking: the plain per-candidate scan
// (ScanFilteredCtx calls Algorithm.Search directly, no thresholds) sorted
// by the canonical order.
func unprunedTopK(t *testing.T, db *Database, alg Algorithm, q traj.Trajectory, k int, filter *geo.Rect) []Match {
	t.Helper()
	var all []Match
	if err := db.ScanFilteredCtx(context.Background(), alg, q, filter, func(m Match) error {
		all = append(all, m)
		return nil
	}); err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	sort.Slice(all, func(i, j int) bool { return matchLess(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestPrunedScanEquivalence(t *testing.T) {
	const k = 10
	data := equivData(1000, 24, 11)
	db := NewDatabase(data, false)
	queries := equivData(3, 9, 12)
	filter := &geo.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}

	measures := []sim.Measure{
		sim.DTW{}, sim.CDTW{R: 0.25}, sim.Frechet{}, sim.EDR{Eps: 0.4}, sim.LCSS{Eps: 0.4},
	}
	// the learned searches: full-state RLS (lower-bound cascade on),
	// simplified-state RLS-Skip and RLS-Skip+ (threshold as a post-filter
	// only) and a compiled table served through the fused walk
	table, err := rl.Compile(noisyPolicy(7, 2, true, true), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	algs := func(m sim.Measure) []Algorithm {
		return []Algorithm{
			ExactS{M: m}, SizeS{M: m, Xi: 4}, PSS{M: m}, POS{M: m}, POSD{M: m, D: 5},
			RLS{M: m, Policy: constPolicy(1, 0, true, false)}, // RLS, always split
			RLS{M: m, Policy: noisyPolicy(3, 3, true, true)},  // RLS-Skip
			RLS{M: m, Policy: noisyPolicy(4, 3, false, true)}, // RLS-Skip+
			RLS{M: m, Table: table},                           // compiled table serving
		}
	}

	var total PruneStats
	for _, m := range measures {
		// ExactS over CDTW recomputes the band DP from scratch per
		// extension; keep its share of the matrix affordable
		for _, alg := range algs(m) {
			for _, f := range []*geo.Rect{nil, filter} {
				name := fmt.Sprintf("%s/%s/filter=%v", m.Name(), alg.Name(), f != nil)
				for qi, q := range queries {
					if m.Name() == "cdtw" && alg.Name() == "ExactS" && qi > 0 {
						break
					}
					want := unprunedTopK(t, db, alg, q, k, f)
					var st PruneStats
					got, err := db.TopKPrunedSourceCtx(context.Background(), alg, q, k, f, nil, &st, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s q%d: got %d matches, want %d", name, qi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s q%d rank %d: pruned %+v, unpruned %+v", name, qi, i, got[i], want[i])
						}
						// the serving walk records its scanned-point count, so
						// quality sampling can price skips without a re-walk
						if _, learned := alg.(RLS); learned && got[i].Result.Scanned <= 0 {
							t.Errorf("%s q%d rank %d: match %+v has no Scanned count", name, qi, i, got[i])
						}
					}
					total.Add(st)
				}
			}
		}
	}
	if total.LBSkipped == 0 {
		t.Error("lower-bound cascade never skipped a candidate across the whole matrix")
	}
	if total.Abandoned == 0 {
		t.Error("no search was ever abandoned across the whole matrix")
	}
	t.Logf("prune stats: %+v (scored %.1f%%)", total,
		100*float64(total.Scored)/float64(total.Candidates))
}

// concurrentTopK is the engine's per-shard scatter in miniature: scans
// goroutines each rank a disjoint round-robin subset of the database with
// TopKPrunedSourceCtx, all of them tightening one SharedKth, and the
// per-scan top-ks are merged into the global top k.
func concurrentTopK(t *testing.T, db *Database, alg Algorithm, q traj.Trajectory, k, scans int) []Match {
	t.Helper()
	subsets := make([][]int, scans)
	for i := 0; i < db.Len(); i++ {
		subsets[i%scans] = append(subsets[i%scans], i)
	}
	shared := NewSharedKth(k)
	parts := make([][]Match, scans)
	errs := make([]error, scans)
	var wg sync.WaitGroup
	for w := range subsets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := CandidateSourceFunc(func(traj.Trajectory, *geo.Rect) []int { return subsets[w] })
			parts[w], errs[w] = db.TopKPrunedSourceCtx(context.Background(), alg, q, k, nil, shared, nil, src)
		}(w)
	}
	wg.Wait()
	var got []Match
	for w := range parts {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		got = append(got, parts[w]...)
	}
	sort.Slice(got, func(i, j int) bool { return matchLess(got[i], got[j]) })
	return got[:min(len(got), max(k, 0))]
}

// TestPrunedScanSharedThreshold drives the same equivalence through
// concurrent scans (concurrentTopK): the merged per-scan top-ks must equal
// the unpruned global ranking. Run under -race it also exercises the shared
// threshold's synchronization.
func TestPrunedScanSharedThreshold(t *testing.T) {
	const k, scans = 10, 8
	data := equivData(1000, 24, 21)
	db := NewDatabase(data, false)
	q := equivData(1, 9, 22)[0]
	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}} {
		alg := ExactS{M: m}
		want := unprunedTopK(t, db, alg, q, k, nil)
		for run := 0; run < 3; run++ {
			got := concurrentTopK(t, db, alg, q, k, scans)
			if len(got) != len(want) {
				t.Fatalf("%s run %d: got %d matches, want %d", m.Name(), run, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s run %d rank %d: concurrent pruned %+v, want %+v", m.Name(), run, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKExactPrunedEquivalence checks the natively pruned TopKExact (and
// TopKSplit over cached-reversal suffix state) against seed-faithful
// references, distinct on and off.
func TestTopKExactPrunedEquivalence(t *testing.T) {
	data := equivData(40, 30, 31)
	q := equivData(1, 10, 32)[0]
	measures := []sim.Measure{sim.DTW{}, sim.Frechet{}, sim.EDR{Eps: 0.4}, sim.LCSS{Eps: 0.4}, sim.ERP{}}
	for _, m := range measures {
		for _, distinct := range []bool{false, true} {
			for _, tr := range data[:8] {
				// reference: the unpruned full enumeration feeding the
				// same heap
				ref := &resultHeap{k: 5, distinct: distinct}
				sim.AllSubDists(m, tr, q, func(i, j int, d float64) {
					ref.offer(Result{Interval: traj.Interval{I: i, J: j}, Dist: d})
				})
				want := ref.sorted()
				got := TopKExact(m, tr, q, 5, distinct)
				if len(got) != len(want) {
					t.Fatalf("%s distinct=%v: got %d results, want %d", m.Name(), distinct, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s distinct=%v rank %d: %+v, want %+v", m.Name(), distinct, i, got[i], want[i])
					}
				}
				// TopKSplit: candidates are the PSS scan's prefixes and
				// suffixes; its answers must match a from-first-principles
				// rerun of that scan
				gotSplit := TopKSplit(m, tr, q, 5, distinct)
				refSplit := &resultHeap{k: 5, distinct: distinct}
				suf := sim.SuffixDists(m, tr, q)
				bestDist, start := 1e308, 0
				var inc sim.Incremental
				var dPre float64
				for i := 0; i < tr.Len(); i++ {
					if i == start {
						inc = m.NewIncremental(tr, q)
						dPre = inc.Init(i)
					} else {
						dPre = inc.Extend()
					}
					refSplit.offer(Result{Interval: traj.Interval{I: start, J: i}, Dist: dPre})
					refSplit.offer(Result{Interval: traj.Interval{I: i, J: tr.Len() - 1}, Dist: suf[i]})
					minD := dPre
					if suf[i] < minD {
						minD = suf[i]
					}
					if minD < bestDist {
						bestDist = minD
						start = i + 1
					}
				}
				wantSplit := refSplit.sorted()
				if len(gotSplit) != len(wantSplit) {
					t.Fatalf("%s distinct=%v TopKSplit: got %d, want %d", m.Name(), distinct, len(gotSplit), len(wantSplit))
				}
				for i := range gotSplit {
					if gotSplit[i] != wantSplit[i] {
						t.Errorf("%s distinct=%v TopKSplit rank %d: %+v, want %+v", m.Name(), distinct, i, gotSplit[i], wantSplit[i])
					}
				}
			}
		}
	}
}

// TestSharedKth exercises the shared-threshold heap directly.
func TestSharedKth(t *testing.T) {
	s := NewSharedKth(3)
	if got := s.Threshold(); !(got > 1e308) {
		t.Fatalf("empty threshold = %v, want +Inf", got)
	}
	s.Offer(5)
	s.Offer(3)
	if got := s.Threshold(); !(got > 1e308) {
		t.Fatalf("threshold before full = %v, want +Inf", got)
	}
	s.Offer(9)
	if got := s.Threshold(); got != 9 {
		t.Fatalf("threshold = %v, want 9", got)
	}
	s.Offer(1) // evicts 9
	if got := s.Threshold(); got != 5 {
		t.Fatalf("threshold = %v, want 5", got)
	}
	s.Offer(100) // no-op
	if got := s.Threshold(); got != 5 {
		t.Fatalf("threshold after worse offer = %v, want 5", got)
	}
	s.Offer(2)
	if got := s.Threshold(); got != 3 {
		t.Fatalf("threshold = %v, want 3", got)
	}
}
