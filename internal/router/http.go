package router

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"simsub/api"
	"simsub/internal/server"
)

// HandlerOptions tunes the router's HTTP front end. The zero value is
// usable.
type HandlerOptions struct {
	// MaxTimeout caps every request's search time (default 60s — a fleet
	// fan-out tolerates more than a single node). A request may ask for
	// less via timeout_ms but never for more.
	MaxTimeout time.Duration
	// MaxBodyBytes limits request body size (default 64 MiB).
	MaxBodyBytes int64
	// MaxBatchSpecs caps the specs per /v2/query batch (default 256).
	MaxBatchSpecs int
	// EnableFailpoints exposes POST/GET /v2/admin/failpoints for arming the
	// router's own fault sites (router/transport). Off by default: fault
	// injection is a test/chaos facility, never enabled in production.
	EnableFailpoints bool
}

func (o *HandlerOptions) fill() {
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxBatchSpecs <= 0 {
		o.MaxBatchSpecs = 256
	}
}

// Handler is the HTTP front end of a Router: the same wire surface as a
// single simsubd (package internal/server), so a client.Client pointed at
// a router cannot tell it from a node. It implements http.Handler.
type Handler struct {
	r     *Router
	opts  HandlerOptions
	mux   *http.ServeMux
	start time.Time
}

// NewHandler builds the HTTP tier over a Router.
func NewHandler(r *Router, opts HandlerOptions) *Handler {
	opts.fill()
	h := &Handler{r: r, opts: opts, mux: http.NewServeMux(), start: time.Now()}
	h.mux.HandleFunc("POST /v1/trajectories", callHandler(h, func(ctx context.Context, req api.LoadRequest) (*api.LoadResponse, error) {
		return r.Load(ctx, req.Trajectories)
	}))
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/query", server.QueryHandler(r, opts.MaxTimeout, opts.MaxBatchSpecs))
	h.mux.HandleFunc("POST /v2/query/stream", server.QueryStreamHandler(r, opts.MaxTimeout))
	h.mux.HandleFunc("GET /v2/trajectories/{id}", h.handleGetTrajectory)
	h.mux.HandleFunc("GET /v2/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/admin/policy", callHandler(h, r.SwapPolicy))
	h.mux.HandleFunc("GET /v2/admin/policy", callHandler(h, noBody(r.Policy)))
	h.mux.HandleFunc("POST /v2/admin/encoder", callHandler(h, r.SwapEncoder))
	h.mux.HandleFunc("GET /v2/admin/encoder", callHandler(h, noBody(r.Encoder)))
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	if opts.EnableFailpoints {
		h.mux.Handle("/v2/admin/failpoints", server.FailpointsHandler())
	}
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleGetTrajectory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
		return
	}
	ctx, cancel := server.RequestContext(r, 0, h.opts.MaxTimeout)
	defer cancel()
	rec, terr := h.r.GetTrajectory(ctx, id)
	if terr != nil {
		server.WriteErr(w, api.FromError(terr))
		return
	}
	server.WriteJSON(w, http.StatusOK, rec)
}

// callHandler serves one fleet-call route (bulk load and model admin): run
// the call under the request's context and answer its result or typed
// error. POST routes first decode the request body into Req.
func callHandler[Req, Info any](h *Handler, call func(context.Context, Req) (*Info, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if r.Method == http.MethodPost && !server.Decode(w, r, &req) {
			return
		}
		ctx, cancel := server.RequestContext(r, 0, h.opts.MaxTimeout)
		defer cancel()
		info, err := call(ctx, req)
		if err != nil {
			server.WriteErr(w, api.FromError(err))
			return
		}
		server.WriteJSON(w, http.StatusOK, info)
	}
}

// noBody adapts a readback to callHandler's request-taking shape.
func noBody[Info any](read func(context.Context) (*Info, error)) func(context.Context, struct{}) (*Info, error) {
	return func(ctx context.Context, _ struct{}) (*Info, error) { return read(ctx) }
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := server.RequestContext(r, 0, h.opts.MaxTimeout)
	defer cancel()
	resp, err := h.r.Stats(ctx)
	if err != nil {
		server.WriteErr(w, api.FromError(err))
		return
	}
	resp.UptimeSeconds = time.Since(h.start).Seconds()
	resp.Goroutines = runtime.NumGoroutine()
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness of the coordinator AND readiness of the
// fleet: 200 only while every shard group has a reachable replica.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	if err := h.r.Health(ctx); err != nil {
		server.WriteErr(w, api.FromError(err))
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
