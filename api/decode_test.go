package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// jsonDecode is the oracle: what encoding/json's streaming decoder makes of
// data, and the decoder itself for checking what follows the value.
func jsonDecode(data []byte, v any, strict bool) (*json.Decoder, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec, dec.Decode(v)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode holds DecodeJSON and DecodeRecord to encoding/json on data
// for one target type, and reports whether the fast path took data.
func checkDecode[T any](t *testing.T, data []byte, strict bool) bool {
	t.Helper()
	var got, want T
	gotErr := DecodeJSON(data, &got, strict)
	dec, wantErr := jsonDecode(data, &want, strict)
	if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T strict=%v on %q:\nDecodeJSON    %+v, %v\nencoding/json %+v, %v", got, strict, data, got, gotErr, want, wantErr)
	}
	var rec T
	if !DecodeRecord(data, &rec) {
		if !reflect.DeepEqual(rec, *new(T)) {
			t.Fatalf("%T: declined DecodeRecord wrote %+v", rec, rec)
		}
		return decodeFast(data, new(T), false)
	}
	if wantErr != nil || !reflect.DeepEqual(rec, want) {
		t.Fatalf("%T: DecodeRecord took %q as %+v; encoding/json: %+v, %v", rec, data, rec, want, wantErr)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("%T: DecodeRecord took %q, but encoding/json reads on after the value: %v", rec, data, err)
	}
	return true
}

func checkAll(t *testing.T, data []byte) {
	for _, strict := range []bool{false, true} {
		checkDecode[Query](t, data, strict)
		checkDecode[QueryResponse](t, data, strict)
		checkDecode[LoadRequest](t, data, strict)
		checkDecode[Trajectory](t, data, strict)
	}
}

// decodeSeeds are bodies on both sides of the fast grammar's edge; each
// is also a seed of FuzzDecodeJSON.
var decodeSeeds = []string{
	`{"specs":[{"query":{"points":[[0,0],[1.5,-2e-3,7]]},"k":3,"measure":"dtw","algorithm":"pss"}],"timeout_ms":250}`,
	`{"specs":[{"query":{"points":[[1,2]]},"k":1,"edr_eps":0.5,"lcss_eps":1E2,"cdtw_band":0.25,"pos_delay":2,"bound":1.25,"allow_degraded":true,"ann":{"candidates":40,"probes":2},"filter":{"min_x":-1,"min_y":-2,"max_x":3,"max_y":4},"distinct":false,"offset":1,"limit":5}]}`,
	`{"results":[{"matches":[{"traj_id":4,"start":0,"end":9,"dist":1.0000000000000002,"sim":0.5,"explored":12}],"total":30,"cached":true,"took_ms":0.125}],"took_ms":0.5}`,
	`{"results":[{"matches":[],"total":0,"cached":false,"error":{"code":"overloaded","message":"busy","retry_after_ms":250},"took_ms":0}]}`,
	`{"results":[{"matches":[],"total":3,"cached":false,"partial":{"nodes_total":2,"nodes_failed":1,"failures":[{"node":"http://n1","error":{"code":"timeout","message":"slow"}}]},"degraded":{"reason":"budget","from":"exacts","to":"pss"},"took_ms":1}]}`,
	`{"trajectories":[{"points":[[0,0,0],[1,1,1]]},{"points":[]},{"points":[[]]}]}`,
	`{"points":[[0,0,0],[1,1,1]]}`,
	" \t\r\n{ \"points\" : [ [ 1 , 2 ] ] }\r\n",
	`{"points":[[1,2]]} trailing bytes`,
	`{"points":[[1,2]]}{"points":[[3,4]]}`,
	`{"points":[[1,2]]}` + "\x00",
	`{"points":[[1,2]]`,
	`{"points":[[1,2]],}`,
	`{"points":[[1,2],]}`,
	`{"points":[[-0,1e308,-1e-320]]}`,
	`{"points":[[1e400,0]]}`,
	`{"points":[[01,2]]}`,
	`{"points":[[1.,2]]}`,
	`{"points":[[.5,2]]}`,
	`{"points":[[+1,2]]}`,
	`{"points":[[1e,2]]}`,
	`{"points":null}`,
	`{"points":[null]}`,
	`null`,
	``,
	`[]`,
	`{"points":[[1,2]],"points":[[3,4]]}`,
	`{"Points":[[1,2]]}`,
	`{"points":[[1,2]],"id":7}`,
	`{"specs":[{"K":3}]}`,
	`{"specs":[{"k":3,"k":4}]}`,
	`{"specs":[{"k":1.0}]}`,
	`{"specs":[{"k":1e2}]}`,
	`{"specs":[{"k":-0}]}`,
	`{"specs":[{"k":9223372036854775807}]}`,
	`{"specs":[{"k":9223372036854775808}]}`,
	`{"specs":[{"k":"3"}]}`,
	`{"specs":[{"measure":3}]}`,
	`{"specs":[{"measure":"d\u0074w"}]}`,
	`{"specs":[{"measure":"dtw\n"}]}`,
	`{"specs":[{"measure":"ümlaut"}]}`,
	"{\"specs\":[{\"measure\":\"\xff\"}]}",
	`{"specs":[{"allow_degraded":truex}]}`,
	`{"specs":[{"allow_degraded":tru}]}`,
	`{"specs":[{"bound":null}]}`,
	`{"specs":[{"ann":{"candidates":4,"candidates":5}}]}`,
	`{"specs":[],"timeout_ms":-7}`,
	`{"results":[{"error":{"code":"x","message":"y","extra":1}}]}`,
	`{"results":[{"partial":{"failures":[{"node":"a","error":{"code":"c"},"error":{}}]}}]}`,
}

// TestDecodeJSONMatchesEncodingJSON runs the oracle check over the seeds
// and the encodings of randomly filled values, and requires the fast path
// to take every encoding/json-produced body: those are the bodies the
// servers, the router and the client exchange.
func TestDecodeJSONMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkAll(t, []byte(s))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		bodies := []any{randQuery(rng, 1+rng.Intn(3), 1+rng.Intn(20)), randResponse(rng, rng.Intn(12)), randLoad(rng, rng.Intn(5), rng.Intn(30))}
		for _, v := range bodies {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, data)
			var took bool
			switch v.(type) {
			case Query:
				took = checkDecode[Query](t, data, true)
			case QueryResponse:
				took = checkDecode[QueryResponse](t, data, false)
			case LoadRequest:
				took = checkDecode[LoadRequest](t, data, true)
			}
			// encoding/json writes a nil slice as null, which the fast
			// grammar leaves to it
			if !took && !bytes.Contains(data, []byte("null")) {
				t.Fatalf("fast path declined an encoding/json body: %s", data)
			}
		}
	}
}

// TestDecodeJSONNonZeroTarget: encoding/json merges into a non-zero
// target, so the fast path leaves such a target to it.
func TestDecodeJSONNonZeroTarget(t *testing.T) {
	data := []byte(`{"specs":[{"k":2}]}`)
	got := Query{TimeoutMS: 9}
	want := got
	if err := DecodeJSON(data, &got, true); err != nil {
		t.Fatal(err)
	}
	if _, err := jsonDecode(data, &want, true); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.TimeoutMS != 9 {
		t.Fatalf("merge differs: %+v vs %+v", got, want)
	}
	if DecodeRecord(data, &Query{TimeoutMS: 9}) || DecodeRecord(data, (*Query)(nil)) || DecodeRecord(data, &QuerySpec{}) {
		t.Fatal("DecodeRecord took a non-zero, nil or unsupported target")
	}
}

// TestDecodeJSONPointsDoNotAlias: points share one backing array, so an
// append to one point must not overwrite the next.
func TestDecodeJSONPointsDoNotAlias(t *testing.T) {
	var tr Trajectory
	if !DecodeRecord([]byte(`{"points":[[1,2],[3,4]]}`), &tr) {
		t.Fatal("declined")
	}
	_ = append(tr.Points[0], 99)
	if tr.Points[1][0] != 3 {
		t.Fatalf("append to point 0 clobbered point 1: %v", tr.Points)
	}
}

// TestDecodeJSONAllocs bounds the fast path's allocations on a 15-point
// query: the spec slice, the point headers and their one backing array,
// the measure and algorithm strings, and the target. encoding/json makes
// about 70.
func TestDecodeJSONAllocs(t *testing.T) {
	data := mustMarshal(t, randQuery(rand.New(rand.NewSource(2)), 1, 15))
	allocs := testing.AllocsPerRun(200, func() {
		var q Query
		if err := DecodeJSON(data, &q, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("fast path made %.0f allocations per 15-point query, want <= 6", allocs)
	}
}

// TestReadJSONReplaysReadError: a read failure after a complete value
// still decodes it, and a failure inside the value comes back unchanged,
// as with json.NewDecoder over the reader.
func TestReadJSONReplaysReadError(t *testing.T) {
	boom := errors.New("connection reset")
	var tr Trajectory
	err := ReadJSON(io.MultiReader(strings.NewReader(`{"points":[[1,2]]} `), iotest.ErrReader(boom)), &tr, true)
	if err != nil || !reflect.DeepEqual(tr.Points, [][]float64{{1, 2}}) {
		t.Fatalf("complete value before the failure: %+v, %v", tr, err)
	}
	err = ReadJSON(io.MultiReader(strings.NewReader(`{"points":[[1,`), iotest.ErrReader(boom)), new(Trajectory), true)
	if !errors.Is(err, boom) {
		t.Fatalf("failure inside the value came back as %v", err)
	}
}

func FuzzDecodeJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAll(t, data) })
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func randTraj(rng *rand.Rand, n int) Trajectory {
	pts := make([][]float64, n)
	x, y := rng.Float64()*1000, rng.Float64()*1000
	for i := range pts {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pts[i] = []float64{x, y, float64(i)}
	}
	return Trajectory{Points: pts}
}

func randQuery(rng *rand.Rand, specs, points int) Query {
	q := Query{TimeoutMS: rng.Intn(2) * 500}
	for i := 0; i < specs; i++ {
		s := QuerySpec{Query: randTraj(rng, points), K: 1 + rng.Intn(20), Measure: "dtw", Algorithm: "pss"}
		if rng.Intn(2) == 0 {
			b := rng.ExpFloat64()
			s.Bound, s.Measure, s.Algorithm = &b, "frechet", "exacts"
			s.ANN = &ANNSpec{Candidates: 250}
			s.Filter = &Rect{MinX: -rng.Float64(), MaxX: rng.Float64(), MaxY: 1e-9}
		}
		q.Specs = append(q.Specs, s)
	}
	return q
}

func randResponse(rng *rand.Rand, matches int) QueryResponse {
	res := QueryResult{Total: matches * 3, Cached: rng.Intn(2) == 0, TookMS: rng.Float64()}
	for i := 0; i < matches; i++ {
		res.Matches = append(res.Matches, Match{TrajID: rng.Intn(1e6), Start: i, End: i + rng.Intn(50),
			Dist: rng.ExpFloat64() * 100, Sim: rng.Float64(), Explored: rng.Intn(1000)})
	}
	switch rng.Intn(4) {
	case 0:
		res.Error = Errorf(CodeOverloaded, "shedding %d", rng.Intn(9))
	case 1:
		res.Partial = &Partial{NodesTotal: 2, NodesFailed: 1, Failures: []NodeFailure{{Node: "http://127.0.0.1:1", Err: Error{Code: CodeTimeout, Message: "slow"}}}}
		res.Degraded = &Degraded{Reason: DegradedBudget, From: "exacts", To: "pss"}
	}
	return QueryResponse{Results: []QueryResult{res}, TookMS: rng.Float64() * 10}
}

func randLoad(rng *rand.Rand, n, points int) LoadRequest {
	l := LoadRequest{Trajectories: []Trajectory{}}
	for i := 0; i < n; i++ {
		l.Trajectories = append(l.Trajectories, randTraj(rng, points))
	}
	return l
}

// BenchmarkDecode compares encoding/json with DecodeJSON on the bodies
// that dominate traffic: a 15-point query, a 10-match answer, a
// 250-trajectory load and a 60-point stream record.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		data []byte
		new  func() any
	}{
		{"query15", mustMarshal(b, randQuery(rng, 1, 15)), func() any { return new(Query) }},
		{"response10", mustMarshal(b, QueryResponse{Results: randResponse(rng, 10).Results[:1]}), func() any { return new(QueryResponse) }},
		{"load250", mustMarshal(b, randLoad(rng, 250, 60)), func() any { return new(LoadRequest) }},
		{"record60", mustMarshal(b, randTraj(rng, 60)), func() any { return new(Trajectory) }},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/json", c.name), func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := json.NewDecoder(bytes.NewReader(c.data)).Decode(c.new()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/fast", c.name), func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := DecodeJSON(c.data, c.new(), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
