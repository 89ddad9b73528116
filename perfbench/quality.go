package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"simsub/api"
	"simsub/client"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// flat is the reference every served exacts ranking must equal byte for
// byte: one unsharded core.Database over the deployment's whole corpus,
// in load order, so positions are the served global IDs.
type flat struct {
	db     *core.Database
	corpus []traj.Trajectory
}

func newFlat(corpus []traj.Trajectory) *flat {
	return &flat{db: core.NewDatabase(corpus, true), corpus: corpus}
}

// expected is the flat database's answer to spec in wire form.
func (f *flat) expected(spec api.QuerySpec) ([]api.Match, error) {
	alg, err := engine.ResolveQuery(spec.Measure, spec.Algorithm, engine.Params{})
	if err != nil {
		return nil, err
	}
	q, aerr := spec.Query.ToTraj()
	if aerr != nil {
		return nil, aerr
	}
	ms, err := f.db.TopKPrunedSourceCtx(context.Background(), alg, q, spec.K, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]api.Match, len(ms))
	for i, m := range ms {
		out[i] = engine.MatchToAPI(engine.Match{TrajID: m.TrajIndex, Result: m.Result})
	}
	return out, nil
}

// checkRanking is the correctness gate of one served exacts ranking: its
// JSON encoding must equal that of the flat database's ranking.
func (f *flat) checkRanking(spec api.QuerySpec, got []api.Match) error {
	want, err := f.expected(spec)
	if err != nil {
		return fmt.Errorf("reference ranking: %w", err)
	}
	if err := sameRanking(got, want); err != nil {
		return fmt.Errorf("%s/%s ranking differs from the flat database: %w", spec.Measure, spec.Algorithm, err)
	}
	return nil
}

func sameRanking(got, want []api.Match) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("got %s, want %s", g, w)
	}
	return nil
}

// answered is one served request and its ranking, kept for the
// correctness gate or the codec pass.
type answered struct {
	spec    api.QuerySpec
	matches []api.Match
}

// queryOne sends one spec and returns its ranking; an error result, a
// partial answer or a degraded answer is a failure.
func queryOne(ctx context.Context, c *client.Client, spec api.QuerySpec) ([]api.Match, error) {
	resp, err := c.Query(ctx, api.Query{Specs: []api.QuerySpec{spec}})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d results for one spec", len(resp.Results))
	}
	r := resp.Results[0]
	switch {
	case r.Error != nil:
		return nil, r.Error
	case r.Partial != nil:
		return nil, fmt.Errorf("partial answer: %d of %d nodes failed", r.Partial.NodesFailed, r.Partial.NodesTotal)
	case r.Degraded != nil:
		return nil, fmt.Errorf("degraded answer: %s → %s", r.Degraded.From, r.Degraded.To)
	}
	return r.Matches, nil
}

// qualityResult holds the paper's effectiveness measures (§6.1) over the
// quality pass's queries: approximation ratio and mean rank of pss and
// rls-skip against exacts, the skip policy's skipped-point fraction, and
// recall@10 of the ann prefilter against the same search unfiltered.
type qualityResult struct {
	Queries              int
	ApproxPSS, ApproxRLS float64
	RankPSS, RankRLS     float64
	Skipped              float64
	Recall               float64
	Attempted, Failed    int
	exacts               []answered
}

// qualityPass sends n fresh dtw queries through the deployment as exacts,
// pss, rls-skip, and pss with and without the ann prefilter, and scores
// the approximate answers against the exact ones. It runs outside the
// timed window; every exacts answer is kept for the correctness gate.
func qualityPass(ctx context.Context, c *client.Client, in *inputs, f *flat, p *rl.Policy, n, budget int) (qualityResult, error) {
	res := qualityResult{}
	var sums [6]float64
	var counts [3]int
	ranked := func(ms []api.Match) []core.RankedAnswer {
		out := make([]core.RankedAnswer, len(ms))
		for i, m := range ms {
			em := engine.MatchFromAPI(m)
			out[i] = core.RankedAnswer{ID: m.TrajID, T: f.corpus[m.TrajID], R: em.Result}
		}
		return out
	}
	ask := func(cl class, q traj.Trajectory) ([]api.Match, error) {
		res.Attempted++
		spec := in.spec(cl, q, budget)
		ms, err := queryOne(ctx, c, spec)
		if err != nil {
			res.Failed++
			return nil, err
		}
		for _, m := range ms {
			if m.TrajID < 0 || m.TrajID >= len(f.corpus) {
				return nil, fmt.Errorf("answer names trajectory %d of %d", m.TrajID, len(f.corpus))
			}
		}
		if cl.Algorithm == "exacts" {
			res.exacts = append(res.exacts, answered{spec, ms})
		}
		return ms, nil
	}
	for _, q := range in.queries(n) {
		var got [4][]api.Match
		for i, cl := range []class{
			{"exacts", "dtw", "exacts", false}, {"pss", "dtw", "pss", false},
			{"rls-skip", "dtw", "rls-skip", false}, {"ann", "dtw", "pss", true},
		} {
			var err error
			if got[i], err = ask(cl, q); err != nil {
				return res, err
			}
		}
		for i, pol := range []*rl.Policy{nil, p} {
			aq, ok := core.ScoreApproxQuality(sim.DTW{}, pol, q, ranked(got[1+i]), ranked(got[0]))
			if !ok || aq.RatioPositions == 0 {
				continue
			}
			sums[2*i] += aq.ApproxRatio
			sums[2*i+1] += aq.MeanRank
			counts[i]++
			if pol != nil {
				sums[4] += aq.SkippedFraction
			}
		}
		// recall of the prefiltered search against the same search over
		// every candidate
		sums[5] += recall(got[3], got[1])
		counts[2]++
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		return res, errors.New("quality pass scored no queries")
	}
	res.Queries = counts[2]
	res.ApproxPSS, res.RankPSS = sums[0]/float64(counts[0]), sums[1]/float64(counts[0])
	res.ApproxRLS, res.RankRLS = sums[2]/float64(counts[1]), sums[3]/float64(counts[1])
	res.Skipped = sums[4] / float64(counts[1])
	res.Recall = sums[5] / float64(counts[2])
	return res, nil
}

// recall is the share of the reference top-k's trajectories present in the
// approximate top-k.
func recall(approx, ref []api.Match) float64 {
	if len(ref) == 0 {
		return 1
	}
	in := map[int]bool{}
	for _, m := range approx {
		in[m.TrajID] = true
	}
	hit := 0
	for _, m := range ref {
		if in[m.TrajID] {
			hit++
		}
	}
	return float64(hit) / float64(len(ref))
}

// gate checks every kept exacts answer against the flat database and
// returns the number checked.
func (f *flat) gate(kept []answered) (int, error) {
	for _, a := range kept {
		if err := f.checkRanking(a.spec, a.matches); err != nil {
			return 0, err
		}
	}
	return len(kept), nil
}
