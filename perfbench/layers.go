package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"simsub/api"
	"simsub/internal/ann"
	"simsub/internal/core"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/sim"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

// The direct-call passes time single layers through their public
// functions, outside any server, on the workload's own data.

// directInput is what the passes run on.
type directInput struct {
	share      []traj.Trajectory // what one node holds: the direct engine's corpus
	batch      int               // the batch size that node's loads commit in
	corpus     []traj.Trajectory // the deployment's whole corpus, for the flat scans
	replay     [][]byte          // node requests (api.Query JSON) to replay on the direct engine
	warmReplay bool              // replay once untimed first, as the node's cache was warm
	serverMS   []float64         // the node's server spans, for server.self_ms
	shards     int               // shards the corpus is split over, for ann.search_us
	budget     int               // the ann class's per-node candidate budget
	kept       []answered        // traced requests and answers, for the codec pass
}

// timeIt runs f and returns its wall time in the given unit.
func timeIt(unit time.Duration, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(unit)
}

func (r *runner) direct(di directInput) error {
	eng, err := r.enginePass(di)
	if err != nil {
		return err
	}
	if err := r.replayPass(eng, di); err != nil {
		return err
	}
	r.codecPass(di.kept)
	r.corePass(di)
	return r.storagePass(di)
}

// enginePass loads the node's share into a fresh default engine in the
// node's batch size (engine.add_ms, engine.add_growth), then times
// Engine.Query on fresh queries of the scan mix (engine.query_ms.<class>).
func (r *runner) enginePass(di directInput) (*engine.Engine, error) {
	eng := engine.New(nodeConfig())
	if _, err := eng.SetEncoder(r.in.encoder); err != nil {
		return nil, err
	}
	if _, err := eng.SetPolicy(r.in.policy); err != nil {
		return nil, err
	}
	var adds []float64
	for i := 0; i < len(di.share); i += di.batch {
		b := di.share[i:min(i+di.batch, len(di.share))]
		var err error
		adds = append(adds, timeIt(time.Millisecond, func() { _, err = eng.Add(b) }))
		if err != nil {
			return nil, err
		}
	}
	tenth := max(1, len(adds)/10)
	r.rep.set("engine.add_ms", median(adds), len(adds))
	r.rep.set("engine.add_growth", mean(adds[len(adds)-tenth:])/mean(adds[:tenth]), len(adds))

	byClass := map[string][]float64{}
	qs := r.in.queries(r.sz.Samples * len(scanMix))
	for i, q := range qs {
		c := scanMix[i%len(scanMix)]
		req := api.Query{Specs: []api.QuerySpec{r.in.spec(c, q, di.budget)}}
		var resp *api.QueryResponse
		var err error
		ms := timeIt(time.Millisecond, func() { resp, err = eng.Query(context.Background(), req) })
		if err == nil && resp.Results[0].Error != nil {
			err = resp.Results[0].Error
		}
		if err != nil {
			return nil, fmt.Errorf("direct engine query: %w", err)
		}
		byClass[c.Label] = append(byClass[c.Label], ms)
	}
	for _, l := range []string{"pss", "exacts", "rls-skip", "ann"} {
		r.rep.set("engine.query_ms."+l, median(byClass[l]), len(byClass[l]))
	}
	return eng, nil
}

// replayPass replays the node's captured requests on the direct engine:
// server.self_ms estimates the server layer's own time as the node's
// median span minus the median direct Engine.Query time of the same
// requests.
func (r *runner) replayPass(eng *engine.Engine, di directInput) error {
	reqs := make([]api.Query, len(di.replay))
	for i, b := range di.replay {
		if err := json.Unmarshal(b, &reqs[i]); err != nil {
			return fmt.Errorf("decoding captured request: %w", err)
		}
		reqs[i].TimeoutMS = 0
	}
	if di.warmReplay {
		for _, q := range reqs {
			if _, err := eng.Query(context.Background(), q); err != nil {
				return err
			}
		}
	}
	var direct []float64
	for _, q := range reqs {
		var err error
		direct = append(direct, timeIt(time.Millisecond, func() { _, err = eng.Query(context.Background(), q) }))
		if err != nil {
			return err
		}
	}
	if len(direct) == 0 || len(di.serverMS) == 0 {
		return fmt.Errorf("server.self_ms: %d server spans, %d replayed requests", len(di.serverMS), len(direct))
	}
	r.rep.set("server.self_ms", median(di.serverMS)-median(direct), len(direct))
	r.rep.line("estimate: server.self_ms = median node span %.3fms (n=%d) - median direct Engine.Query %.3fms (n=%d)",
		median(di.serverMS), len(di.serverMS), median(direct), len(direct))
	return nil
}

// codecPass times JSON encode + decode of the workload's own requests and
// answers (api.Query and api.QueryResponse), per request.
func (r *runner) codecPass(kept []answered) {
	var us []float64
	for _, x := range kept {
		req := api.Query{Specs: []api.QuerySpec{x.spec}}
		resp := api.QueryResponse{Results: []api.QueryResult{{Matches: x.matches, Total: len(x.matches)}}}
		us = append(us, timeIt(time.Microsecond, func() {
			b, _ := json.Marshal(req) // the types always encode
			var q api.Query
			_ = json.Unmarshal(b, &q)
			b, _ = json.Marshal(resp)
			var p api.QueryResponse
			_ = json.Unmarshal(b, &p)
		}))
	}
	r.rep.set("api.codec_us", median(us), len(us))
}

// corePass times Database.TopKPrunedSourceCtx on a flat database of the
// corpus per class (core.scan_ms.<class>), the DP cost per candidate that
// reached a kernel, the t2vec embeddings and the ann index search.
func (r *runner) corePass(di directInput) {
	db := core.NewDatabase(di.corpus, true)
	enc := r.in.encoder
	var insert []float64
	embs := make([][]float64, len(di.corpus))
	for i, t := range di.corpus {
		insert = append(insert, timeIt(time.Microsecond, func() { embs[i] = enc.Embed(t) }))
	}
	r.rep.set("t2vec.insert_embed_us", median(insert), len(insert))
	full := ann.Build(embs, enc.Dim(), ann.Config{})
	shard := ann.Build(embs[:len(embs)/di.shards], enc.Dim(), ann.Config{})
	budget := len(di.corpus) / 4
	var fractions, embedUS, searchUS []float64
	src := core.CandidateSourceFunc(func(q traj.Trajectory, _ *geo.Rect) []int {
		c := full.Search(enc.QueryEmbedding(q), budget, api.DefaultANNProbes)
		fractions = append(fractions, float64(len(c))/float64(len(di.corpus)))
		return c
	})
	algs := map[string]core.Algorithm{
		"pss": core.PSS{M: sim.DTW{}}, "exacts": core.ExactS{M: sim.DTW{}},
		"rls-skip": core.RLS{M: sim.DTW{}, Policy: r.in.policy}, "ann": core.PSS{M: sim.DTW{}},
	}
	scan := map[string][]float64{}
	var dpMS float64
	var dpCands int64
	for _, q := range r.in.queries(r.sz.Samples) {
		for _, l := range []string{"pss", "exacts", "rls-skip", "ann"} {
			var s core.CandidateSource
			if l == "ann" {
				s = src
			}
			var st core.PruneStats
			ms := timeIt(time.Millisecond, func() {
				_, _ = db.TopKPrunedSourceCtx(context.Background(), algs[l], q, K, nil, nil, &st, s) // a background context never cancels
			})
			scan[l] = append(scan[l], ms)
			if l == "pss" || l == "exacts" {
				dpMS += ms
				dpCands += st.Candidates - st.LBSkipped
			}
		}
		// QueryEmbedding caches by point storage, and the ann scan above
		// already embedded q: time a fresh copy
		fresh := traj.Trajectory{Points: append([]geo.Point(nil), q.Points...)}
		var e []float64
		embedUS = append(embedUS, timeIt(time.Microsecond, func() { e = enc.QueryEmbedding(fresh) }))
		// one shard's share of the per-node budget, as the engine splits it
		searchUS = append(searchUS, timeIt(time.Microsecond, func() { shard.Search(e, di.budget/4, api.DefaultANNProbes) }))
	}
	for l, v := range scan {
		r.rep.set("core.scan_ms."+l, median(v), len(v))
	}
	r.rep.set("sim.dp_us_per_candidate", ratio(dpMS*1000, float64(dpCands)), int(dpCands))
	r.rep.set("t2vec.embed_us", median(embedUS), len(embedUS))
	r.rep.set("ann.search_us", median(searchUS), len(searchUS))
	r.rep.set("ann.candidate_fraction", mean(fractions), len(fractions))
}

// storagePass appends the workload's data to a scratch segment store in
// the stream's batch size and times Append, Sync and Snapshot; bytes on
// disk per byte of user data (24 bytes per x, y, t point) is read at the
// end.
func (r *runner) storagePass(di directInput) error {
	dir, err := scratchDir(r.out, "storage-")
	if err != nil {
		return err
	}
	defer func() { r.rep.fail(os.RemoveAll(dir)) }()
	st, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return err
	}
	data := di.corpus
	const batch = 512
	var appendMS, syncMS []float64
	points := 0
	for i := 0; i < len(data); i += batch {
		b := data[i:min(i+batch, len(data))]
		for _, t := range b {
			points += t.Len()
		}
		var aerr, serr error
		appendMS = append(appendMS, timeIt(time.Millisecond, func() { _, aerr = st.Append(b) }))
		syncMS = append(syncMS, timeIt(time.Millisecond, func() { serr = st.Sync() }))
		if aerr != nil || serr != nil {
			return fmt.Errorf("storage pass: append %v, sync %v", aerr, serr)
		}
	}
	var snapErr error
	snapMS := timeIt(time.Millisecond, func() { snapErr = st.Snapshot() })
	if snapErr != nil {
		return snapErr
	}
	if err := st.Close(); err != nil {
		return err
	}
	var bytes int64
	if err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	}); err != nil {
		return err
	}
	r.rep.set("storage.append_ms", median(appendMS), len(appendMS))
	r.rep.set("storage.sync_ms", median(syncMS), len(syncMS))
	r.rep.set("storage.snapshot_ms", snapMS, 1)
	r.rep.set("storage.bytes_per_user_byte", float64(bytes)/float64(24*points), points)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
