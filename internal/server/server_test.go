package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simsub/api"
	"simsub/internal/engine"
	"simsub/internal/geo"
	"simsub/internal/traj"
)

func newTestServer(t *testing.T, cfg engine.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(cfg)
	ts := httptest.NewServer(New(eng, Options{}))
	t.Cleanup(ts.Close)
	return ts, eng
}

func randWalk(rng *rand.Rand, n int) traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64() * 0.3
		y += rng.NormFloat64() * 0.3
		pts[i] = geo.Point{X: x, Y: y, T: float64(i)}
	}
	return traj.New(pts...)
}

func toWire(t traj.Trajectory) Trajectory {
	pts := make([][]float64, t.Len())
	for i, p := range t.Points {
		pts[i] = []float64{p.X, p.Y, p.T}
	}
	return Trajectory{Points: pts}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	decodeBody(t, resp, &body)
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestLoadAndStats(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Shards: 2})
	rng := rand.New(rand.NewSource(70))
	req := loadRequest{}
	for i := 0; i < 7; i++ {
		req.Trajectories = append(req.Trajectories, toWire(randWalk(rng, 10)))
	}
	resp := postJSON(t, ts.URL+"/v1/trajectories", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	var lr loadResponse
	decodeBody(t, resp, &lr)
	if lr.Loaded != 7 || lr.Total != 7 || len(lr.IDs) != 7 {
		t.Fatalf("load response %+v", lr)
	}
	if eng.Len() != 7 {
		t.Fatalf("engine holds %d trajectories", eng.Len())
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr api.StatsResponse
	decodeBody(t, resp, &sr)
	if sr.Engine.Trajectories != 7 || sr.Engine.Points != 70 || sr.Engine.Shards != 2 {
		t.Fatalf("stats %+v", sr.Engine)
	}
	if len(sr.Measures) == 0 {
		t.Fatal("stats list no measures")
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Shards: 3, CacheSize: 8, Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(71))
	load := loadRequest{}
	for i := 0; i < 20; i++ {
		load.Trajectories = append(load.Trajectories, toWire(randWalk(rng, 12)))
	}
	postJSON(t, ts.URL+"/v1/trajectories", load).Body.Close()

	req := topkRequest{Query: toWire(randWalk(rng, 5)), K: 4, Measure: "dtw", Algorithm: "pss"}
	resp := postJSON(t, ts.URL+"/v1/topk", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d", resp.StatusCode)
	}
	var tr topkResponse
	decodeBody(t, resp, &tr)
	if len(tr.Matches) != 4 || tr.Cached {
		t.Fatalf("topk response: %d matches cached=%v", len(tr.Matches), tr.Cached)
	}
	for i, m := range tr.Matches {
		if m.Start < 0 || m.End < m.Start || m.Dist < 0 || m.Sim <= 0 || m.Sim > 1 {
			t.Fatalf("match %d malformed: %+v", i, m)
		}
		if i > 0 && tr.Matches[i-1].Dist > m.Dist {
			t.Fatal("matches not ascending")
		}
	}

	// identical query → cache hit
	resp = postJSON(t, ts.URL+"/v1/topk", req)
	var tr2 topkResponse
	decodeBody(t, resp, &tr2)
	if !tr2.Cached {
		t.Fatal("second identical query not served from cache")
	}
}

func TestSearchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{})
	req := searchRequest{
		Data:    Trajectory{Points: [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 2}}},
		Query:   Trajectory{Points: [][]float64{{2, 0}, {3, 1}}},
		Measure: "dtw", Algorithm: "exacts",
	}
	resp := postJSON(t, ts.URL+"/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var sr searchResponse
	decodeBody(t, resp, &sr)
	// the exact answer is the identical subtrajectory [2,3] at distance 0
	if sr.Start != 2 || sr.End != 3 || sr.Dist != 0 || sr.Sim != 1 {
		t.Fatalf("search response %+v", sr)
	}
}

func TestBadRequests(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{})
	eng.Add([]traj.Trajectory{randWalk(rand.New(rand.NewSource(73)), 8)})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"empty load", "/v1/trajectories", loadRequest{}, http.StatusBadRequest},
		{"empty trajectory", "/v1/trajectories",
			loadRequest{Trajectories: []Trajectory{{}}}, http.StatusBadRequest},
		{"bad point arity", "/v1/trajectories",
			loadRequest{Trajectories: []Trajectory{{Points: [][]float64{{1}}}}}, http.StatusBadRequest},
		{"empty query", "/v1/topk", topkRequest{K: 1}, http.StatusBadRequest},
		{"unknown measure", "/v1/topk",
			topkRequest{Query: Trajectory{Points: [][]float64{{0, 0}, {1, 1}}}, K: 1, Measure: "nope"},
			http.StatusBadRequest},
		{"unknown algorithm", "/v1/search",
			searchRequest{
				Data:  Trajectory{Points: [][]float64{{0, 0}, {1, 1}}},
				Query: Trajectory{Points: [][]float64{{0, 0}}}, Algorithm: "nope"},
			http.StatusBadRequest},
		{"empty search data", "/v1/search",
			searchRequest{Query: Trajectory{Points: [][]float64{{0, 0}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		var e api.ErrorResponse
		code := resp.StatusCode
		decodeBody(t, resp, &e)
		if code != tc.want || e.Err.Code != api.CodeInvalidArgument || e.Err.Message == "" {
			t.Errorf("%s: status %d (want %d), error %+v", tc.name, code, tc.want, e.Err)
		}
	}

	// malformed JSON
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// wrong method
	resp, err = http.Get(ts.URL + "/v1/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/topk: status %d", resp.StatusCode)
	}
}

func TestTopKDefaults(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Index: engine.ScanAll})
	rng := rand.New(rand.NewSource(72))
	load := loadRequest{}
	for i := 0; i < 15; i++ {
		load.Trajectories = append(load.Trajectories, toWire(randWalk(rng, 8)))
	}
	postJSON(t, ts.URL+"/v1/trajectories", load).Body.Close()
	// measure and algorithm default; k is required
	resp := postJSON(t, ts.URL+"/v1/topk", topkRequest{Query: toWire(randWalk(rng, 4)), K: 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tr topkResponse
	decodeBody(t, resp, &tr)
	if len(tr.Matches) != 6 {
		t.Fatalf("%d matches with default measure/algorithm, want 6", len(tr.Matches))
	}

	// an omitted (or non-positive) k is a typed invalid_argument error, the
	// same shape /v2 returns — there is no silent default ranking size
	resp = postJSON(t, ts.URL+"/v1/topk", topkRequest{Query: toWire(randWalk(rng, 4))})
	var er api.ErrorResponse
	code := resp.StatusCode
	decodeBody(t, resp, &er)
	if code != http.StatusBadRequest || er.Err.Code != api.CodeInvalidArgument {
		t.Fatalf("omitted k: status %d, error %+v", code, er.Err)
	}

	// an absurd timeout_ms must clamp to MaxTimeout, not overflow into an
	// already-expired deadline
	resp = postJSON(t, ts.URL+"/v1/topk", topkRequest{
		Query: toWire(randWalk(rng, 4)), K: 3, TimeoutMS: 1 << 60,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge timeout_ms: status %d, want 200", resp.StatusCode)
	}
}

// TestDecodeBody pins server.Decode on /v2/query: an unknown field is
// invalid_argument with encoding/json's message, keys match
// case-insensitively, bytes after the first value are ignored, and a body
// past the cap is too_large unless its first value completed within it.
func TestDecodeBody(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2, Index: engine.ScanAll})
	eng.Add([]traj.Trajectory{randWalk(rand.New(rand.NewSource(5)), 8)})
	srv := httptest.NewServer(New(eng, Options{MaxBodyBytes: 256}))
	t.Cleanup(srv.Close)
	spec := `{"query":{"points":[[0,0],[1,1]]},"k":1}`
	for _, tc := range []struct {
		name, body string
		code       api.Code // empty: the query must answer
		msg        string
	}{
		{"unknown spec field", `{"specs":[{"query":{"points":[[0,0],[1,1]]},"k":1,"bogus":2}]}`,
			api.CodeInvalidArgument, `bad request body: json: unknown field "bogus"`},
		{"case-folded key", `{"specs":[{"query":{"points":[[0,0],[1,1]]},"K":1}]}`, "", ""},
		{"trailing bytes ignored", `{"specs":[` + spec + `]} trailing garbage`, "", ""},
		{"value complete within the cap", `{"specs":[` + spec + `]}` + strings.Repeat(" ", 1000), "", ""},
		{"oversize", `{"specs":[` + spec + strings.Repeat(","+spec, 10) + `]}`,
			api.CodeTooLarge, "request body exceeds 256 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v2/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.code != "" {
				var e api.ErrorResponse
				if err := json.Unmarshal(body, &e); err != nil || e.Err.Code != tc.code || e.Err.Message != tc.msg ||
					resp.StatusCode != e.Err.HTTPStatus() {
					t.Fatalf("status %d, body %s; want %s %q", resp.StatusCode, body, tc.code, tc.msg)
				}
				return
			}
			var out api.QueryResponse
			if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK ||
				len(out.Results) != 1 || out.Results[0].Error != nil || len(out.Results[0].Matches) != 1 {
				t.Fatalf("status %d, body %s; want one answered spec", resp.StatusCode, body)
			}
		})
	}
}
