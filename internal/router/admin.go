package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"simsub/api"
	"simsub/internal/rl"
	"simsub/internal/t2vec"
)

// fanOut calls every node concurrently — each attempt bounded by
// NodeTimeout and observed for node health — and returns the per-node
// results and errors in node order. Every fleet-wide admin and telemetry
// call goes through it, so one hung node cannot stall any of them.
func fanOut[T any](ctx context.Context, r *Router, call func(context.Context, *node) (T, error)) ([]T, []error) {
	vals := make([]T, len(r.nodes))
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			actx, cancel := r.attemptCtx(ctx)
			defer cancel()
			start := time.Now()
			vals[i], errs[i] = call(actx, n)
			n.observe(start, errs[i])
		}(i, n)
	}
	wg.Wait()
	return vals, errs
}

// modelKind describes one hot-swappable model kind for the shared fleet
// broadcast and readback; Info is its wire description.
type modelKind[Info any] struct {
	// name ("policy" or "encoder") names the model in errors and in the
	// swap request's base64 field.
	name string
	// parse checks that file bytes hold a valid model of this kind.
	parse func(io.Reader) error
	// fingerprint reads the content fingerprint off a node's description.
	fingerprint func(*Info) string
}

var (
	policyKind = modelKind[api.PolicyInfo]{
		name:        "policy",
		parse:       func(rd io.Reader) error { _, err := rl.Load(rd); return err },
		fingerprint: func(i *api.PolicyInfo) string { return i.Fingerprint },
	}
	encoderKind = modelKind[api.EncoderInfo]{
		name:        "encoder",
		parse:       func(rd io.Reader) error { _, err := t2vec.Load(rd); return err },
		fingerprint: func(i *api.EncoderInfo) string { return i.Fingerprint },
	}
)

// source resolves a swap request's model to the base64 bytes broadcast to
// the nodes: exactly one of path and b64 must be set. A path names a file
// on the ROUTER's filesystem — the nodes' filesystems are not the
// operator's — so it is read and parsed here and fails exactly as a node
// fails for its own paths: not_found when missing, internal on any other
// read failure, and invalid_argument without the parse error (which can
// echo the file's contents) when it holds no valid model. Caller-supplied
// bytes pass through for the nodes to judge.
func (k modelKind[Info]) source(path, b64 string) (string, error) {
	if (path == "") == (b64 == "") {
		return "", api.Errorf(api.CodeInvalidArgument, "exactly one of path or %s_b64 must be set", k.name)
	}
	if path == "" {
		return b64, nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return "", api.Errorf(api.CodeNotFound, "%s file %q does not exist", k.name, path)
	}
	if err != nil {
		var perr *fs.PathError
		if errors.As(err, &perr) {
			err = perr.Err // the message names the path already
		}
		return "", api.Errorf(api.CodeInternal, "reading %s file %q: %v", k.name, path, err)
	}
	if k.parse(bytes.NewReader(raw)) != nil {
		return "", api.Errorf(api.CodeInvalidArgument, "file %q is not a valid %s", path, k.name)
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// broadcast sends one swap to every node and verifies the fleet agrees on
// the new fingerprint. The swap is all-or-nothing in intent but not
// atomic across the fleet. When every node rejects it as invalid_argument
// no node swapped, so the first node's rejection is returned as is. Any
// other failure — a rejection by some nodes only, or a node that could
// not be reached and may or may not have swapped — is an internal error
// naming each failing node: the accepting nodes keep serving the new
// model, and re-issuing the swap converges the fleet.
func (k modelKind[Info]) broadcast(ctx context.Context, r *Router, swap func(context.Context, *node) (*Info, error)) (*Info, error) {
	infos, errs := fanOut(ctx, r, swap)
	rejected := 0
	for _, err := range errs {
		if err != nil && api.FromError(err).Code == api.CodeInvalidArgument {
			rejected++
		}
	}
	if rejected == len(errs) {
		return nil, api.FromError(errs[0])
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("node %s: %w", r.nodes[i].base, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, api.Errorf(api.CodeInternal,
			"%s broadcast incomplete, fleet may be serving mixed models — re-issue the swap: %v", k.name, err)
	}
	return k.agree(r, infos)
}

// read fetches every node's registered model and returns it once every
// answering node agrees on the fingerprint; a diverged fleet is an
// internal error, since it would serve the same query inconsistently.
// When no node answers with a model the first typed rejection (usually
// not_found: none registered) is returned.
func (k modelKind[Info]) read(ctx context.Context, r *Router, get func(context.Context, *node) (*Info, error)) (*Info, error) {
	infos, errs := fanOut(ctx, r, get)
	info, err := k.agree(r, infos)
	if info != nil || err != nil {
		return info, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, api.FromError(err)
		}
	}
	return nil, api.Errorf(api.CodeNotFound, "no %s registered", k.name)
}

// agree returns the first non-nil description after checking that every
// other one reports the same fingerprint.
func (k modelKind[Info]) agree(r *Router, infos []*Info) (*Info, error) {
	var first *Info
	firstNode := ""
	for i, info := range infos {
		if info == nil {
			continue
		}
		if first == nil {
			first, firstNode = info, r.nodes[i].base
			continue
		}
		if k.fingerprint(info) != k.fingerprint(first) {
			return nil, api.Errorf(api.CodeInternal,
				"fleet %s fingerprints diverged: node %s reports %s, node %s reports %s — re-issue the swap",
				k.name, firstNode, k.fingerprint(first), r.nodes[i].base, k.fingerprint(info))
		}
	}
	return first, nil
}

// SwapPolicy broadcasts a learned-search policy swap to every node of the
// fleet (see modelKind.source for Path requests and modelKind.broadcast
// for the outcome); CompileResolution rides along to every node.
func (r *Router) SwapPolicy(ctx context.Context, req api.PolicySwapRequest) (*api.PolicyInfo, error) {
	b64, err := policyKind.source(req.Path, req.PolicyB64)
	if err != nil {
		return nil, err
	}
	req.Path, req.PolicyB64 = "", b64
	return policyKind.broadcast(ctx, r, func(ctx context.Context, n *node) (*api.PolicyInfo, error) {
		return n.c.SwapPolicy(ctx, req)
	})
}

// Policy reports the fleet's registered policy; every reachable node must
// agree on its fingerprint.
func (r *Router) Policy(ctx context.Context) (*api.PolicyInfo, error) {
	return policyKind.read(ctx, r, func(ctx context.Context, n *node) (*api.PolicyInfo, error) {
		return n.c.Policy(ctx)
	})
}

// SwapEncoder broadcasts a t2vec encoder swap to every node of the fleet,
// enabling the "ann" prefilter and the "embed" ranking fleet-wide. Fleet
// agreement matters even more than for the policy: a diverged fleet would
// rank the same ann query against different embedding spaces per shard
// group.
func (r *Router) SwapEncoder(ctx context.Context, req api.EncoderSwapRequest) (*api.EncoderInfo, error) {
	b64, err := encoderKind.source(req.Path, req.EncoderB64)
	if err != nil {
		return nil, err
	}
	req.Path, req.EncoderB64 = "", b64
	return encoderKind.broadcast(ctx, r, func(ctx context.Context, n *node) (*api.EncoderInfo, error) {
		return n.c.SwapEncoder(ctx, req)
	})
}

// Encoder reports the fleet's registered encoder; every reachable node
// must agree on its fingerprint.
func (r *Router) Encoder(ctx context.Context) (*api.EncoderInfo, error) {
	return encoderKind.read(ctx, r, func(ctx context.Context, n *node) (*api.EncoderInfo, error) {
		return n.c.Encoder(ctx)
	})
}

// Stats aggregates fleet telemetry, best-effort: unreachable nodes
// contribute nothing (and are marked unhealthy) rather than failing the
// call. The Engine section sums the nodes' counters — store-shape fields
// (trajectories, points, shards, workers) over one replica per group to
// avoid double counting, work counters over every node, since replicas do
// independent work. The Router section is the coordinator's own telemetry.
func (r *Router) Stats(ctx context.Context) (*api.StatsResponse, error) {
	stats, _ := fanOut(ctx, r, func(ctx context.Context, n *node) (*api.StatsResponse, error) {
		return n.c.Stats(ctx)
	})

	var agg api.Stats
	var measures []string
	var recallWeighted float64
	idx := 0
	for _, g := range r.groups {
		shaped := false
		for range g.replicas {
			st := stats[idx]
			idx++
			if st == nil {
				continue
			}
			e := st.Engine
			if !shaped {
				shaped = true
				agg.Points += e.Points
				agg.Shards += e.Shards
				agg.Workers += e.Workers
				agg.CacheEntries += e.CacheEntries
			}
			agg.Queries += e.Queries
			agg.CacheHits += e.CacheHits
			agg.CacheMisses += e.CacheMisses
			agg.InFlight += e.InFlight
			agg.CandidatesSeen += e.CandidatesSeen
			agg.LBSkipped += e.LBSkipped
			agg.EarlyAbandoned += e.EarlyAbandoned
			agg.RLSQueries += e.RLSQueries
			agg.QualitySamples += e.QualitySamples
			agg.ANNQueries += e.ANNQueries
			agg.RecallSamples += e.RecallSamples
			recallWeighted += e.MeanRecall * float64(e.RecallSamples)
			agg.Shed += e.Shed
			agg.ShedExpensive += e.ShedExpensive
			agg.DeadlineRejects += e.DeadlineRejects
			agg.DegradedQueries += e.DegradedQueries
			agg.QueueDepth += e.QueueDepth
			if e.QueueWaitMS > agg.QueueWaitMS {
				agg.QueueWaitMS = e.QueueWaitMS // worst node's smoothed wait
			}
			agg.Shedding = agg.Shedding || e.Shedding
			if !agg.PolicyLoaded && e.PolicyLoaded {
				agg.PolicyLoaded = true
				agg.PolicyName = e.PolicyName
				agg.PolicyFingerprint = e.PolicyFingerprint
				agg.PolicyCompiled = e.PolicyCompiled
				agg.PolicyCompileResolution = e.PolicyCompileResolution
				agg.PolicyCompileDivergence = e.PolicyCompileDivergence
				agg.PolicyCompiledFingerprint = e.PolicyCompiledFingerprint
			}
			if !agg.EncoderLoaded && e.EncoderLoaded {
				agg.EncoderLoaded = true
				agg.EncoderFingerprint = e.EncoderFingerprint
				agg.EncoderDim = e.EncoderDim
				agg.EncoderGrid = e.EncoderGrid
			}
			if measures == nil {
				measures = st.Measures
			}
		}
	}
	if agg.RecallSamples > 0 {
		agg.MeanRecall = recallWeighted / float64(agg.RecallSamples)
	}
	agg.Trajectories = r.Len()

	rs := &api.RouterStats{
		Groups:           len(r.groups),
		Replication:      r.cfg.Replication,
		Trajectories:     r.Len(),
		Queries:          r.queries.Load(),
		Hedges:           r.hedges.Load(),
		Retries:          r.retries.Load(),
		PartialResults:   r.partial.Load(),
		BoundsPropagated: r.bounds.Load(),
		DeadlineRejects:  r.deadlineRejects.Load(),
	}
	for i, n := range r.nodes {
		// Surface each node's self-reported lifecycle state so operators can
		// tell a replaying node (its data paths 503 and the scatter fails
		// over) from a dead one.
		state := "unreachable"
		if st := stats[i]; st != nil {
			state = st.State
			if state == "" {
				state = api.StateReady
			}
		}
		rs.Nodes = append(rs.Nodes, api.NodeStats{
			Node:         n.base,
			Group:        n.group,
			State:        state,
			Healthy:      n.healthy.Load(),
			Requests:     n.requests.Load(),
			Failures:     n.failures.Load(),
			Hedges:       n.hedges.Load(),
			Retries:      n.retries.Load(),
			RTTMeanMS:    durMS(n.rtt.mean()),
			RTTP50MS:     durMS(n.rtt.quantile(0.50)),
			RTTP95MS:     durMS(n.rtt.quantile(0.95)),
			Breaker:      n.brk.stateName(),
			BreakerOpens: n.brk.openCount(),
		})
	}
	return &api.StatsResponse{Engine: agg, Measures: measures, Router: rs}, nil
}

func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Health probes every node; it succeeds when every group has at least one
// healthy replica (the fleet can still answer complete queries).
func (r *Router) Health(ctx context.Context) error {
	_, errs := fanOut(ctx, r, func(ctx context.Context, n *node) (struct{}, error) {
		return struct{}{}, n.c.Health(ctx)
	})
	idx := 0
	for gi, g := range r.groups {
		healthy := false
		for range g.replicas {
			healthy = healthy || errs[idx] == nil
			idx++
		}
		if !healthy {
			return api.Errorf(api.CodeInternal, "shard group %d has no reachable replica", gi)
		}
	}
	return nil
}
