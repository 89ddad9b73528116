package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"simsub/api"
	"simsub/client"
	"simsub/internal/engine"
	"simsub/internal/router"
	"simsub/internal/server"
	"simsub/internal/storage"
)

// nodeConfig is simsubd's default engine configuration: 4 shards, workers
// = GOMAXPROCS, a 1024-entry result cache and per-shard R-trees.
func nodeConfig() engine.Config {
	return engine.Config{Shards: 4, CacheSize: 1024, Index: engine.RTree}
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// node is one simsubd: an engine behind server.Server on its own port.
type node struct {
	eng *engine.Engine
	ln  *listener
}

// wrap lets the traced run put its span recorder around a handler.
type wrap func(layer string, h http.Handler) http.Handler

func noWrap(_ string, h http.Handler) http.Handler { return h }

func startNode(eng *engine.Engine, w wrap) (*node, error) {
	ln, err := listen(w("server", server.New(eng, server.Options{})))
	if err != nil {
		return nil, err
	}
	return &node{eng: eng, ln: ln}, nil
}

// deployment is what a workload talks to: a router over two nodes, or one
// durable node. front is the URL the generator sends to.
type deployment struct {
	nodes  []*node
	rt     *router.Router
	front  *listener
	store  *storage.Store // ingest-live only
	dir    string         // ingest-live's data directory
	at     time.Time      // when set-up started
	setup  time.Duration  // boot + load + registration (+ warmup), wall clock
	cpu    time.Duration  // process CPU time of the same set-up
	loadS  time.Duration  // the corpus load inside setup
	loaded int            // trajectories acknowledged by the load endpoint
}

// url is the address the generator sends to.
func (d *deployment) url() string { return d.front.url }

// close stops every server of the deployment and, for the durable node,
// closes the store (fsync + final snapshot). It keeps the data directory.
func (d *deployment) close() error {
	var err error
	if d.rt != nil {
		err = d.front.close()
	}
	for _, n := range d.nodes {
		err = errors.Join(err, n.ln.close())
	}
	if d.store != nil {
		err = errors.Join(err, d.store.Close())
		d.store = nil
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// generatorClient is the load generator's client: at most conns
// connections, and the span-injecting transport when tracing.
func generatorClient(url string, conns int, tr *tracer) *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	if tr != nil {
		rt = &injectTransport{base: rt}
	}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}))
}

// loadBatch is the batch size of the fleets' Load calls through the router.
const loadBatch = 250

// bootFleet starts two default nodes behind router.New + router.NewHandler
// with router defaults, registers the encoder and the uncompiled policy
// through the router's admin endpoints, and loads the corpus through the
// router in batches. With tr set, every layer is wrapped for tracing. The
// returned setup time excludes nothing but input generation.
func bootFleet(in *inputs, tr *tracer, warm func(*client.Client) error) (*deployment, error) {
	start, cpu0 := time.Now(), cpuTime()
	d := &deployment{}
	w := wrap(noWrap)
	var hc *http.Client
	if tr != nil {
		w = tr.wrapHandler
		hc = &http.Client{Transport: &nodeTransport{base: http.DefaultTransport, tr: tr}}
	}
	urls := make([]string, 2)
	for i := range urls {
		n, err := startNode(engine.New(nodeConfig()), w)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.nodes = append(d.nodes, n)
		urls[i] = n.ln.url
	}
	rt, err := router.New(router.Config{Nodes: urls, HTTPClient: hc})
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.rt = rt
	if d.front, err = listen(w("router", router.NewHandler(rt, router.HandlerOptions{}))); err != nil {
		d.rt = nil
		return nil, errors.Join(err, d.close())
	}
	admin := client.New(d.front.url)
	ctx := context.Background()
	if _, err := admin.SwapEncoder(ctx, api.EncoderSwapRequest{EncoderB64: in.encoderB64}); err != nil {
		return nil, errors.Join(fmt.Errorf("registering encoder: %w", err), d.close())
	}
	if _, err := admin.SwapPolicy(ctx, api.PolicySwapRequest{PolicyB64: in.policyB64}); err != nil {
		return nil, errors.Join(fmt.Errorf("registering policy: %w", err), d.close())
	}
	loadStart := time.Now()
	for i := 0; i < len(in.wireCorpus); i += loadBatch {
		end := min(i+loadBatch, len(in.wireCorpus))
		resp, err := admin.Load(ctx, in.wireCorpus[i:end])
		if err != nil {
			return nil, errors.Join(fmt.Errorf("loading corpus: %w", err), d.close())
		}
		d.loaded += resp.Loaded
	}
	d.loadS = time.Since(loadStart)
	if warm != nil {
		if err := warm(admin); err != nil {
			return nil, errors.Join(fmt.Errorf("warming caches: %w", err), d.close())
		}
	}
	d.at, d.setup, d.cpu = start, time.Since(start), cpuTime()-cpu0
	return d, nil
}

// bootDurable starts ingest-live's node: simsubd's default engine with the
// encoder registered before the store attaches (simsubd's -encoder boot
// order), a segment store on dir under the default flush policy — 64 MiB
// segment roll, fsync on roll and on close, no per-append sync — and the
// seed corpus loaded through the public load endpoint.
func bootDurable(in *inputs, dir string, tr *tracer) (*deployment, error) {
	start, cpu0 := time.Now(), cpuTime()
	d, _, err := openDurable(in, dir, tr)
	if err != nil {
		return nil, err
	}
	loadStart := time.Now()
	c := client.New(d.url())
	for i := 0; i < len(in.wireCorpus); i += loadBatch {
		end := min(i+loadBatch, len(in.wireCorpus))
		resp, err := c.Load(context.Background(), in.wireCorpus[i:end])
		if err != nil {
			return nil, errors.Join(fmt.Errorf("loading seed corpus: %w", err), d.close())
		}
		d.loaded += resp.Loaded
	}
	d.loadS = time.Since(loadStart)
	d.at, d.setup, d.cpu = start, time.Since(start), cpuTime()-cpu0
	return d, nil
}

// openDurable opens (or recovers) the store in dir into a fresh engine and
// serves it; it is both bootDurable's first step and the reopen that
// recover_s times.
func openDurable(in *inputs, dir string, tr *tracer) (*deployment, *storage.RecoveryStats, error) {
	w := wrap(noWrap)
	if tr != nil {
		w = tr.wrapHandler
	}
	eng := engine.New(nodeConfig())
	if _, err := eng.SetEncoder(in.encoder); err != nil {
		return nil, nil, fmt.Errorf("registering encoder: %w", err)
	}
	if _, err := eng.SetPolicy(in.policy); err != nil {
		return nil, nil, fmt.Errorf("registering policy: %w", err)
	}
	st, rs, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("opening store: %w", err)
	}
	if err := eng.AttachStore(st); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("attaching store: %w", err), st.Close())
	}
	n, err := startNode(eng, w)
	if err != nil {
		return nil, nil, errors.Join(err, st.Close())
	}
	return &deployment{nodes: []*node{n}, front: n.ln, store: st, dir: dir}, rs, nil
}

// scratchDir makes a fresh directory under the run's output directory.
func scratchDir(out, name string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, name)
}

// procs is the generator's connection budget: one per CPU.
func procs() int { return runtime.GOMAXPROCS(0) }
