package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans of the traced run. They are recorded only by the benchmark's own
// code around the calls it makes into each layer: the generator's client
// calls, an http.Handler wrapper around the router handler and around each
// node's server.Server, and a RoundTripper installed through
// router.Config.HTTPClient that times every router → node call. The
// router passes the request context through to its node calls, so the
// RoundTripper finds the router span there; it hands its own span to the
// node wrapper in a header it adds itself.

// spanHeader carries "<trace>-<span>" (hex) from a caller to the wrapped
// handler of the next layer.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanRef struct{ trace, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// node0 and captured hold the bodies of the /v2/query requests the
	// router sent to its first node, replayed against a direct engine to
	// estimate the server layer's own time.
	node0    string
	captured [][]byte
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (a zero parent starts a new trace).
func (t *tracer) begin(parent spanRef, layer, name string) (span, spanRef) {
	id := t.ids.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent.id, Layer: layer, Name: name, Start: t.now()}, spanRef{trace, id}
}

func (t *tracer) end(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func encodeRef(r spanRef) string {
	return strconv.FormatUint(r.trace, 16) + "-" + strconv.FormatUint(r.id, 16)
}

func decodeRef(h string) (spanRef, bool) {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}, false
	}
	tr, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	return spanRef{tr, id}, err1 == nil && err2 == nil
}

// wrapHandler records a span of the given layer around every request the
// handler serves, parented on the caller's span header, and puts the span
// in the request context for the layer's own outgoing calls.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := decodeRef(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s, ref := t.begin(parent, layer, r.URL.Path)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref)))
		t.end(s)
	})
}

// injectTransport is the generator's transport when tracing: it forwards
// the client span found in the request context as the span header.
type injectTransport struct{ base http.RoundTripper }

func (t *injectTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, encodeRef(ref))
	}
	return t.base.RoundTrip(req)
}

// nodeTransport times every router → node call as a "node_call" span
// under the router span it finds in the request context. The span ends
// when the response body is closed, so it covers the whole answer.
type nodeTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *nodeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	if req.URL.Path == "/v2/query" && req.Body != nil && t.tr.capture(req.URL.Host) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		_ = req.Body.Close() // fully read; the replacement below is what gets sent
		t.tr.mu.Lock()
		t.tr.captured = append(t.tr.captured, body)
		t.tr.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	s, ref := t.tr.begin(parent, "node_call", req.URL.Host)
	req.Header.Set(spanHeader, encodeRef(ref))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(s) }}
	return resp, nil
}

func (t *tracer) capture(host string) bool {
	return t.node0 != "" && strings.HasSuffix(t.node0, "//"+host)
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStats is the per-layer summary of a span set: count, median span
// and median self time (the span minus the union of its children).
type layerStats struct {
	Count  int
	SpanMS float64
	SelfMS float64
}

func summarize(spans []span) map[string]layerStats {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		ms := float64(s.dur()) / float64(time.Millisecond)
		self := ms - float64(covered(s, children[s.ID]))/float64(time.Millisecond)
		durs[s.Layer] = append(durs[s.Layer], ms)
		selfs[s.Layer] = append(selfs[s.Layer], self)
	}
	out := map[string]layerStats{}
	for l, d := range durs {
		out[l] = layerStats{Count: len(d), SpanMS: median(d), SelfMS: median(selfs[l])}
	}
	return out
}

// covered is how much of s's interval its children's union covers.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		ks, ke := max(k.Start, s.Start), min(k.End, s.End)
		if ke <= ks {
			continue
		}
		if ks > curE {
			total += curE - curS
			curS, curE = ks, ke
		} else if ke > curE {
			curE = ke
		}
	}
	total += curE - curS
	return time.Duration(total)
}

// writeSpans exports the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
