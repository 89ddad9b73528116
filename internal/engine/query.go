package engine

import (
	"context"
	"math"
	"sync"
	"time"

	"simsub/api"
	"simsub/internal/core"
	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

// This file adapts the engine onto the api package's versioned wire types:
// *Engine satisfies api.Searcher (batched queries) and api.StreamSearcher
// (incremental match delivery), the same interfaces the HTTP client
// implements, so in-process and remote search are interchangeable.

var (
	_ api.Searcher       = (*Engine)(nil)
	_ api.StreamSearcher = (*Engine)(nil)
)

// QueryFromSpec validates a wire spec and converts it into an engine
// query, filling in the default measure and algorithm names.
func QueryFromSpec(spec api.QuerySpec) (Query, *api.Error) {
	spec = spec.WithDefaults()
	t, aerr := spec.Query.ToTraj()
	if aerr != nil {
		return Query{}, aerr
	}
	var filter *geo.Rect
	if spec.Filter != nil {
		if aerr := spec.Filter.Validate(); aerr != nil {
			return Query{}, aerr
		}
		r := spec.Filter.Geo()
		filter = &r
	}
	if aerr := spec.ValidateBound(); aerr != nil {
		return Query{}, aerr
	}
	if aerr := spec.ValidateANN(); aerr != nil {
		return Query{}, aerr
	}
	var ann *ANNParams
	if spec.ANN != nil {
		ann = &ANNParams{Candidates: spec.ANN.Candidates, Probes: spec.ANN.Probes}
	}
	return Query{
		Q:         t,
		K:         spec.K,
		Measure:   spec.Measure,
		Algorithm: spec.Algorithm,
		Params: Params{
			EDREps:   spec.EDREps,
			LCSSEps:  spec.LCSSEps,
			CDTWBand: spec.CDTWBand,
			POSDelay: spec.POSDelay,
		},
		Bound:         spec.Bound,
		ANN:           ann,
		Filter:        filter,
		AllowDegraded: spec.AllowDegraded,
		Distinct:      spec.Distinct,
		Offset:        spec.Offset,
		Limit:         spec.Limit,
	}, nil
}

// MatchToAPI converts an engine match to wire form.
func MatchToAPI(m Match) api.Match {
	return api.Match{
		TrajID:   m.TrajID,
		Start:    m.Result.Interval.I,
		End:      m.Result.Interval.J,
		Dist:     m.Result.Dist,
		Sim:      sim.Sim(m.Result.Dist),
		Explored: m.Result.Explored,
	}
}

// MatchFromAPI converts a wire match back to engine form (the inverse of
// MatchToAPI up to the derived Sim field). The distributed coordinator uses
// it to run per-node wire rankings through MergeTopK.
func MatchFromAPI(m api.Match) Match {
	return Match{
		TrajID: m.TrajID,
		Result: core.Result{
			Interval: traj.Interval{I: m.Start, J: m.End},
			Dist:     m.Dist,
			Explored: m.Explored,
		},
	}
}

// MatchesToAPI converts a ranking to wire form (never nil, so JSON
// renders an empty array rather than null).
func MatchesToAPI(ms []Match) []api.Match {
	out := make([]api.Match, len(ms))
	for i, m := range ms {
		out[i] = MatchToAPI(m)
	}
	return out
}

// pageOf selects the ranking window [offset, offset+limit) (limit 0 = to
// the end). The page aliases full — which cache hits share — so callers
// must treat it as read-only.
func pageOf(full []Match, offset, limit int) []Match {
	if offset >= len(full) {
		return nil
	}
	out := full[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

func tookMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// Answer is one spec's outcome from a serving tier's query pipeline,
// before paging: the full ranking and the flags the wire result carries.
type Answer struct {
	Full     []Match
	Cached   bool
	Partial  *api.Partial
	Degraded *api.Degraded
}

// Pipeline is one serving tier's query pipeline over wire specs: the
// engine's and the distributed router's are each written once, and the
// unary, streamed and batched wire entry points of both derive from it
// here. emit nil asks for a unary answer; a listener receives — from the
// calling goroutine — every provisional match entering the running top-k,
// and its error aborts the query and comes back unchanged.
type Pipeline func(ctx context.Context, spec api.QuerySpec, emit func(Match) error) (Answer, error)

// One answers a single spec; failures land in the result's Error field as
// typed errors, mirroring one lane of a batch.
func (p Pipeline) One(ctx context.Context, spec api.QuerySpec) api.QueryResult {
	start := time.Now()
	a, err := p(ctx, spec, nil)
	if err != nil {
		return api.QueryResult{Error: api.FromError(err), TookMS: tookMS(start)}
	}
	return api.QueryResult{
		Matches:  MatchesToAPI(pageOf(a.Full, spec.Offset, spec.Limit)),
		Total:    len(a.Full),
		Cached:   a.Cached,
		Partial:  a.Partial,
		Degraded: a.Degraded,
		TookMS:   tookMS(start),
	}
}

// Stream answers a single spec with emit receiving every provisional match
// in wire form (single-goroutine, in order of entry); the summary carries
// the authoritative final ranking, identical to One's. An emit error
// aborts the query and is returned unchanged; other failures are typed.
func (p Pipeline) Stream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	start := time.Now()
	emitted := 0
	var emitErr error
	a, err := p(ctx, spec, func(m Match) error {
		emitted++
		emitErr = emit(MatchToAPI(m))
		return emitErr
	})
	switch {
	case emitErr != nil:
		return nil, emitErr
	case err != nil:
		return nil, api.FromError(err)
	}
	return &api.StreamSummary{
		Matches:  MatchesToAPI(pageOf(a.Full, spec.Offset, spec.Limit)),
		Total:    len(a.Full),
		Cached:   a.Cached,
		Emitted:  emitted,
		Partial:  a.Partial,
		Degraded: a.Degraded,
		TookMS:   tookMS(start),
	}, nil
}

// Batch answers a batch: the specs run concurrently, Results[i] answers
// Specs[i], a failed spec carries its typed error without failing the
// batch, and the whole batch is bounded by TimeoutMS when positive. The
// clamp keeps an absurd TimeoutMS from overflowing the
// duration multiply into an already-expired deadline.
func (p Pipeline) Batch(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	if len(req.Specs) == 0 {
		return nil, api.Errorf(api.CodeInvalidArgument, "query batch has no specs")
	}
	var cancel context.CancelFunc
	if ms := req.TimeoutMS; ms > 0 {
		ms = min(ms, int(math.MaxInt64/int64(time.Millisecond)))
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	start := time.Now()
	results := make([]api.QueryResult, len(req.Specs))
	var wg sync.WaitGroup
	for i, spec := range req.Specs {
		wg.Add(1)
		go func(i int, spec api.QuerySpec) {
			defer wg.Done()
			results[i] = p.One(ctx, spec)
		}(i, spec)
	}
	wg.Wait()
	return &api.QueryResponse{Results: results, TookMS: tookMS(start)}, nil
}

// pipeline is the engine's Pipeline: the wire spec converted and answered
// by topK.
func (e *Engine) pipeline(ctx context.Context, spec api.QuerySpec, emit func(Match) error) (Answer, error) {
	q, aerr := QueryFromSpec(spec)
	if aerr != nil {
		return Answer{}, aerr
	}
	full, _, cached, deg, err := e.topK(ctx, q, emit)
	return Answer{Full: full, Cached: cached, Degraded: deg}, err
}

// QueryOne answers a single spec; failures land in the result's Error
// field as typed errors, mirroring one lane of a batch.
func (e *Engine) QueryOne(ctx context.Context, spec api.QuerySpec) api.QueryResult {
	return Pipeline(e.pipeline).One(ctx, spec)
}

// Query implements api.Searcher: the batch's specs are answered
// concurrently — the per-shard tasks of all specs share the engine's
// bounded worker pool, so a big batch amortizes dispatch without
// overcommitting the machine.
func (e *Engine) Query(ctx context.Context, req api.Query) (*api.QueryResponse, error) {
	return Pipeline(e.pipeline).Batch(ctx, req)
}

// QueryStream implements api.StreamSearcher: emit receives every
// provisional match as it enters the running top-k (single-goroutine,
// in order of entry), and the returned summary carries the authoritative
// final ranking. An emit error aborts the search and is returned.
func (e *Engine) QueryStream(ctx context.Context, spec api.QuerySpec, emit func(api.Match) error) (*api.StreamSummary, error) {
	return Pipeline(e.pipeline).Stream(ctx, spec, emit)
}
