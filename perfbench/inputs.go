package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"

	"simsub/api"
	"simsub/internal/dataset"
	"simsub/internal/geo"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

// K is the ranking size of every query the benchmark sends.
const K = 10

// sizes fixes how much data one run generates. The full scale is what the
// benchmark measures; the smoke test runs a toy scale through the same code.
type sizes struct {
	Corpus     int // trajectories in a fleet's corpus, and in ingest-live's seed corpus
	Stream     int // trajectories ingest-live streams on top of its seed corpus
	QMin, QMax int // query length range, in points
	HotPool    int // distinct specs fleet-hot draws from
	Quality    int // queries in the quality pass (>= 50 at full scale)
	Samples    int // direct-call samples per class in the traced passes
	Episodes   int // training episodes of the RLS-Skip policy
	Setups     int // set-ups per run; setup_s is their median
}

var fullScale = sizes{
	Corpus: 1000, Stream: 8000, QMin: 10, QMax: 20, HotPool: 64,
	Quality: 100, Samples: 24, Episodes: 60, Setups: 5,
}

// class is one kind of request in a workload's mix. Label is the class
// suffix of the per-layer metrics (".pss", ".exacts", ".rls-skip", ".ann").
type class struct {
	Label     string
	Measure   string
	Algorithm string
	ANN       bool
}

// scanMix is fleet-scan's request mix, also used by the direct-call
// passes: dtw/frechet × pss/exacts, dtw rls-skip, and dtw pss behind the
// ann prefilter.
var scanMix = []class{
	{"pss", "dtw", "pss", false},
	{"exacts", "dtw", "exacts", false},
	{"pss", "frechet", "pss", false},
	{"exacts", "frechet", "exacts", false},
	{"rls-skip", "dtw", "rls-skip", false},
	{"ann", "dtw", "pss", true},
}

// inputs is everything a run generates from its seed before set-up starts:
// the corpus, the query trajectories and the trained models. None of it is
// timed.
type inputs struct {
	sz      sizes
	corpus  []traj.Trajectory // fleet corpus, or ingest-live's seed corpus
	stream  []traj.Trajectory // ingest-live only
	heldOut []traj.Trajectory // queries are cut from these
	policy  *rl.Policy
	encoder *t2vec.Model
	// wire forms of the corpus and the models, prepared once so set-up
	// times the load, not the encoding
	wireCorpus []api.Trajectory
	policyB64  string
	encoderB64 string
	rng        *rand.Rand
}

func makeInputs(seed int64, sz sizes, ingest bool) (*inputs, error) {
	in := &inputs{sz: sz, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	in.corpus = dataset.Generate(dataset.Config{Kind: dataset.Porto, N: sz.Corpus, Seed: seed})
	if ingest {
		in.stream = dataset.Generate(dataset.Config{Kind: dataset.Porto, N: sz.Stream, Seed: seed + 1})
	}
	in.heldOut = dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 200, Seed: seed + 6})
	in.wireCorpus = make([]api.Trajectory, len(in.corpus))
	for i, t := range in.corpus {
		in.wireCorpus[i] = api.FromTraj(t)
	}

	// The RLS-Skip policy trains on pairs drawn from a separate pool of the
	// same kind, as cmd/train does; the 16-dim encoder trains on the pool.
	pool := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 80, Seed: seed + 2})
	pairs := dataset.Pairs(pool, 40, sz.QMin, sz.QMax, seed+3)
	ds := make([]traj.Trajectory, len(pairs))
	qs := make([]traj.Trajectory, len(pairs))
	for i, p := range pairs {
		ds[i], qs[i] = p.Data, p.Query
	}
	var err error
	in.policy, _, err = rl.Train(ds, qs, sim.DTW{}, rl.Config{K: 3, UseSuffix: true, Episodes: sz.Episodes, Seed: seed + 4})
	if err != nil {
		return nil, fmt.Errorf("training policy: %w", err)
	}
	in.encoder, _, err = t2vec.Train(pool, t2vec.TrainConfig{Hidden: 16, Epochs: 2, Seed: seed + 5})
	if err != nil {
		return nil, fmt.Errorf("training encoder: %w", err)
	}
	var buf bytes.Buffer
	if err := in.policy.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving policy: %w", err)
	}
	in.policyB64 = base64.StdEncoding.EncodeToString(buf.Bytes())
	buf.Reset()
	if err := in.encoder.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving encoder: %w", err)
	}
	in.encoderB64 = base64.StdEncoding.EncodeToString(buf.Bytes())
	return in, nil
}

// queries draws n query trajectories: random windows of QMin..QMax points
// of held-out trajectories (generated like the corpus but never loaded, so
// no query is a piece of the data and exact distances stay well above 0),
// each shifted by sub-metre noise so no two queries are equal. Every call
// continues the run's seeded stream, so successive calls never repeat.
func (in *inputs) queries(n int) []traj.Trajectory {
	out := make([]traj.Trajectory, 0, n)
	for len(out) < n {
		t := in.heldOut[in.rng.Intn(len(in.heldOut))]
		l := in.sz.QMin + in.rng.Intn(in.sz.QMax-in.sz.QMin+1)
		if t.Len() < l {
			continue
		}
		start := in.rng.Intn(t.Len() - l + 1)
		pts := append([]geo.Point(nil), t.Points[start:start+l]...)
		for j := range pts {
			pts[j].X += in.rng.NormFloat64() * 1e-6
			pts[j].Y += in.rng.NormFloat64() * 1e-6
		}
		out = append(out, traj.New(pts...))
	}
	return out
}

// spec builds the wire query of one class; budget is the ann class's
// per-node candidate budget.
func (in *inputs) spec(c class, q traj.Trajectory, budget int) api.QuerySpec {
	s := api.QuerySpec{Query: api.FromTraj(q), K: K, Measure: c.Measure, Algorithm: c.Algorithm}
	if c.ANN {
		s.ANN = &api.ANNSpec{Candidates: budget, Probes: api.DefaultANNProbes}
	}
	return s
}

// annBudget is the per-node candidate budget of the ann class: 25% of the
// node's share of the corpus (the router forwards the budget verbatim).
func annBudget(corpus, nodes int) int {
	b := corpus / nodes / 4
	if b < K {
		b = K
	}
	return b
}
