package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"simsub/api"
	"simsub/internal/dataset"
)

// toyScale runs the harness end to end in seconds.
var toyScale = sizes{
	Corpus: 60, Stream: 300, QMin: 5, QMax: 8, HotPool: 8,
	Quality: 4, Samples: 2, Episodes: 5, Setups: 2,
}

// declared reads BENCHMARK.json's metric lists.
func declared(t *testing.T) (endToEnd, perLayer []metricDef, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	return bm.EndToEnd, bm.PerLayer, names
}

// TestDeclaredMetrics keeps BENCHMARK.json and the harness in step.
func TestDeclaredMetrics(t *testing.T) {
	e2e, pl, names := declared(t)
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness prints %v", e2e, endToEnd)
	}
	if fmt.Sprint(pl) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness prints %v", pl, perLayer)
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", n)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(names), len(workloads))
	}
}

// TestSmoke runs every workload untraced and traced at toy scale and
// checks that each declared metric prints by name with its unit, and that
// the run passes its gates.
func TestSmoke(t *testing.T) {
	e2e, pl, _ := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				r := &runner{w: w, seed: 7, seconds: time.Second, trace: trace, out: t.TempDir(),
					sz: toyScale, rep: newReport(&out), conns: procs()}
				err := r.run("..")
				text := out.String()
				if err != nil {
					t.Fatalf("run failed: %v\n%s", err, text)
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, text)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := e2e
				if trace {
					want = pl
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result holds %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
						t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` +n=\d+$`)
					if !line.MatchString(text) {
						t.Errorf("no report line for %s with unit %s", m.Name, m.Unit)
					}
				}
				if !strings.Contains(text, "provenance: commit=") {
					t.Error("no provenance line")
				}
			})
		}
	}
}

// TestGateTripsOnPerturbedRanking checks that the correctness gate rejects
// a served ranking that differs from the flat database's in any way.
func TestGateTripsOnPerturbedRanking(t *testing.T) {
	corpus := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 40, Seed: 3})
	f := newFlat(corpus)
	spec := api.QuerySpec{Query: api.FromTraj(corpus[5].Sub(2, 9)), K: 5, Measure: "dtw", Algorithm: "exacts"}
	want, err := f.expected(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.checkRanking(spec, want); err != nil {
		t.Fatalf("the reference ranking fails its own gate: %v", err)
	}
	perturb := map[string]func([]api.Match){
		"distance": func(ms []api.Match) { ms[1].Dist = math.Nextafter(ms[1].Dist, math.Inf(1)) },
		"order":    func(ms []api.Match) { ms[0], ms[1] = ms[1], ms[0] },
		"interval": func(ms []api.Match) { ms[2].End++ },
		"missing":  func(ms []api.Match) { ms[len(ms)-1].TrajID = -1 },
	}
	for name, p := range perturb {
		got := append([]api.Match(nil), want...)
		p(got)
		if _, err := f.gate([]answered{{spec, got}}); err == nil {
			t.Errorf("%s perturbation passed the gate", name)
		}
	}
}

// TestRefClockScaling checks the reference-speed scaling: the clock's own
// CPU time is taken out, and the rest is scaled by refNominal over the
// mean cost of the computations started in the interval.
func TestRefClockScaling(t *testing.T) {
	t0 := time.Now()
	c := &refClock{samples: []refSample{
		{t0.Add(-time.Second), 9 * refNominal}, // before the interval: ignored
		{t0, 2 * refNominal},
		{t0.Add(time.Second), 2 * refNominal},
	}}
	got := c.scaledCPU(104*refNominal, t0, t0.Add(2*time.Second))
	if want := 50 * refNominal; got != want {
		t.Errorf("scaledCPU = %v, want %v", got, want)
	}
}
