package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"simsub/api"
	"simsub/internal/traj"
)

// streamSpecs is the spec table every stream ≡ unary test runs, at engine
// and at router level: paging, distinct collapsing over cross-load
// duplicates, a spatial filter with pss, k above every shard's share, a
// second measure, and a caller-supplied bound (the unbounded ranking's
// k-th-best distance, the tightest bound that cannot change the ranking).
func streamSpecs(q api.Trajectory, bound float64) []struct {
	name string
	spec api.QuerySpec
} {
	f := &api.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	return []struct {
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
}

// TestTopKStreamMatchesTopK checks the streaming search's final ranking is
// identical to the blocking TopK for the same query, and that every final
// match was provisionally emitted on its way in — on every spec dimension,
// both through TopK/TopKStream and through the wire QueryOne/QueryStream.
func TestTopKStreamMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	base := randSet(rng, 60)
	ts := append(append([]traj.Trajectory{}, base...), base...) // every trajectory loaded twice
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(ts)
	wq := api.FromTraj(randTraj(rng, 6))
	unbounded := e.QueryOne(context.Background(), api.QuerySpec{Query: wq, K: 12})
	if unbounded.Error != nil {
		t.Fatal(unbounded.Error)
	}

	for _, tc := range streamSpecs(wq, unbounded.Matches[11].Dist) {
		t.Run(tc.name, func(t *testing.T) {
			q, aerr := QueryFromSpec(tc.spec)
			if aerr != nil {
				t.Fatal(aerr)
			}
			want, _, err := e.TopK(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			var emitted []Match
			got, cached, err := e.TopKStream(context.Background(), q, func(m Match) error {
				emitted = append(emitted, m)
				return nil
			})
			if err != nil || cached {
				t.Fatalf("stream: cached=%v err=%v", cached, err)
			}
			if len(got) != len(want) {
				t.Fatalf("stream ranking has %d matches, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stream rank %d: %+v, want %+v", i, got[i], want[i])
				}
			}
			// every final answer must have streamed out when it entered the top-k
			inEmitted := map[Match]bool{}
			for _, m := range emitted {
				inEmitted[m] = true
			}
			for _, m := range want {
				if !inEmitted[m] {
					t.Fatalf("final match %+v was never emitted", m)
				}
			}
			if len(emitted) < len(want) {
				t.Fatalf("only %d provisional emissions for a %d-deep final ranking", len(emitted), len(want))
			}

			// the wire entry points: the summary is QueryOne's answer
			one := e.QueryOne(context.Background(), tc.spec)
			var provisional []api.Match
			sum, err := e.QueryStream(context.Background(), tc.spec, func(m api.Match) error {
				provisional = append(provisional, m)
				return nil
			})
			if err != nil || one.Error != nil {
				t.Fatalf("errors %v / %v", err, one.Error)
			}
			if !reflect.DeepEqual(sum.Matches, one.Matches) || sum.Total != one.Total || sum.Cached != one.Cached {
				t.Fatalf("stream summary diverged from QueryOne\ngot  %+v (total %d cached %v)\nwant %+v (total %d cached %v)",
					sum.Matches, sum.Total, sum.Cached, one.Matches, one.Total, one.Cached)
			}
			if sum.Emitted != len(provisional) {
				t.Fatalf("summary says %d emitted, listener saw %d", sum.Emitted, len(provisional))
			}
		})
	}
}

// TestTopKStreamCacheHit checks a stream served from the LRU emits exactly
// the final page and reports cached.
func TestTopKStreamCacheHit(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	e := New(Config{Shards: 4, Index: ScanAll, CacheSize: 8})
	e.Add(randSet(rng, 30))
	q := Query{Q: randTraj(rng, 5), K: 6, Measure: "dtw", Algorithm: "pss"}

	if _, _, err := e.TopK(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var emitted []Match
	got, cached, err := e.TopKStream(context.Background(), q, func(m Match) error {
		emitted = append(emitted, m)
		return nil
	})
	if err != nil || !cached {
		t.Fatalf("cached stream: cached=%v err=%v", cached, err)
	}
	if len(emitted) != len(got) {
		t.Fatalf("cache hit emitted %d matches for a %d-match page", len(emitted), len(got))
	}
	for i := range got {
		if emitted[i] != got[i] {
			t.Fatalf("cache-hit emission %d differs from the page", i)
		}
	}
}

// TestTopKStreamEmitError checks an emit failure aborts the search and
// surfaces unchanged.
func TestTopKStreamEmitError(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	e := New(Config{Shards: 4, Index: ScanAll})
	e.Add(randSet(rng, 40))
	boom := errors.New("client went away")
	_, _, err := e.TopKStream(context.Background(),
		Query{Q: randTraj(rng, 5), K: 5, Measure: "dtw", Algorithm: "pss"},
		func(Match) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the emit error", err)
	}
	if inflight := e.Stats().InFlight; inflight != 0 {
		t.Fatalf("in-flight = %d after aborted stream", inflight)
	}
}
