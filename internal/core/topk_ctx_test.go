package core

import (
	"context"
	"math/rand"
	"testing"

	"simsub/internal/sim"
	"simsub/internal/traj"
)

// The degenerate-input tests run each case through both TopK and the
// concurrent shared-threshold scatter (concurrentTopK), the two ways the
// scan is driven.
func topKBothWays(t *testing.T, db *Database, q traj.Trajectory, k, scans int) (seq, par []Match) {
	t.Helper()
	alg := ExactS{M: sim.DTW{}}
	return db.TopK(alg, q, k), concurrentTopK(t, db, alg, q, k, scans)
}

func TestTopKParallelKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	db := NewDatabase(smallDB(rng, 10), false)
	q := randTraj(rng, 4)
	for _, k := range []int{0, -3} {
		seq, par := topKBothWays(t, db, q, k, 4)
		if len(seq) != 0 || len(par) != 0 {
			t.Fatalf("k=%d: got %d sequential and %d concurrent matches, want 0", k, len(seq), len(par))
		}
	}
}

func TestTopKParallelEmptyDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	seq, par := topKBothWays(t, NewDatabase(nil, false), randTraj(rng, 4), 5, 8)
	if len(seq) != 0 || len(par) != 0 {
		t.Fatalf("empty db: got %d sequential and %d concurrent matches, want 0", len(seq), len(par))
	}
}

func TestTopKParallelAllEmptyTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ts := []traj.Trajectory{traj.New(), traj.New(), traj.New(), traj.New()}
	q := randTraj(rng, 4)
	seq, par := topKBothWays(t, NewDatabase(ts, false), q, 5, 2)
	if len(seq) != 0 || len(par) != 0 {
		t.Fatalf("all-empty db: got %d sequential and %d concurrent matches, want 0", len(seq), len(par))
	}
	// mixed: empty trajectories are skipped, the rest still ranked
	ts = append(ts, randTraj(rng, 8), randTraj(rng, 8))
	seq, par = topKBothWays(t, NewDatabase(ts, false), q, 5, 3)
	if len(seq) != 2 || len(par) != 2 {
		t.Fatalf("mixed db: got %d sequential and %d concurrent matches, want 2", len(seq), len(par))
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Errorf("mixed db rank %d: concurrent %+v != sequential %+v", i, par[i], seq[i])
		}
	}
}

func TestTopKPrunedSourceCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	db := NewDatabase(smallDB(rng, 20), false)
	q := randTraj(rng, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKPrunedSourceCtx(ctx, ExactS{M: sim.DTW{}}, q, 5, nil, nil, nil, nil); err != context.Canceled {
		t.Fatalf("TopKPrunedSourceCtx err = %v, want context.Canceled", err)
	}
	err := db.ScanPrunedSourceCtx(ctx, ExactS{M: sim.DTW{}}, q, nil, nil, nil, nil, func(Match) error { return nil })
	if err != context.Canceled {
		t.Fatalf("ScanPrunedSourceCtx err = %v, want context.Canceled", err)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// identical trajectories produce identical distances; the ranking must
	// fall back to trajectory index, so every scan (and every engine shard
	// layout) agrees on it
	rng := rand.New(rand.NewSource(55))
	base := randTraj(rng, 10)
	ts := make([]traj.Trajectory, 8)
	for i := range ts {
		ts[i] = base.Clone()
		ts[i].ID = i
	}
	db := NewDatabase(ts, false)
	q := randTraj(rng, 4)
	got := db.TopK(PSS{M: sim.DTW{}}, q, 4)
	if len(got) != 4 {
		t.Fatalf("got %d matches, want 4", len(got))
	}
	for i, m := range got {
		if m.TrajIndex != i || m.Result != got[0].Result {
			t.Fatalf("rank %d: %+v, want trajectory %d with result %+v", i, m, i, got[0].Result)
		}
	}
}
