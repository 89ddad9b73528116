package router

import (
	"context"
	"encoding/json"
	"errors"
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
	h.mux.HandleFunc("POST /v1/trajectories", h.handleLoad)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/query", h.handleQuery)
	h.mux.HandleFunc("POST /v2/query/stream", h.handleQueryStream)
	h.mux.HandleFunc("GET /v2/trajectories/{id}", h.handleGetTrajectory)
	h.mux.HandleFunc("GET /v2/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/admin/policy", adminHandler(h, r.SwapPolicy))
	h.mux.HandleFunc("GET /v2/admin/policy", adminHandler(h, noBody(r.Policy)))
	h.mux.HandleFunc("POST /v2/admin/encoder", adminHandler(h, r.SwapEncoder))
	h.mux.HandleFunc("GET /v2/admin/encoder", adminHandler(h, noBody(r.Encoder)))
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders the typed error envelope with its mapped HTTP status.
// Like the node server, every overloaded (503) response carries a
// Retry-After header: the error's drain-rate-derived hint when it has one,
// a conservative 1s otherwise.
func writeErr(w http.ResponseWriter, ae *api.Error) {
	if ae.Code == api.CodeOverloaded {
		if ae.RetryAfterMS <= 0 {
			cp := *ae
			cp.RetryAfterMS = 1000
			ae = &cp
		}
		w.Header().Set("Retry-After", strconv.Itoa((ae.RetryAfterMS+999)/1000))
	}
	writeJSON(w, ae.HTTPStatus(), api.ErrorResponse{Err: *ae})
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeErr(w, api.Errorf(api.CodeTooLarge, "request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "bad request body: %v", err))
		return false
	}
	return true
}

// requestContext derives the fan-out context: the client connection's
// context bounded by min(timeout_ms, MaxTimeout).
func (h *Handler) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := h.opts.MaxTimeout
	if timeoutMS > 0 && int64(timeoutMS) < int64(d/time.Millisecond) {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (h *Handler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req api.LoadRequest
	if !decode(w, r, &req) {
		return
	}
	ctx, cancel := h.requestContext(r, 0)
	defer cancel()
	resp, err := h.r.Load(ctx, req.Trajectories)
	if err != nil {
		writeErr(w, api.FromError(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.Query
	if !decode(w, r, &req) {
		return
	}
	if len(req.Specs) == 0 {
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "query batch has no specs"))
		return
	}
	if len(req.Specs) > h.opts.MaxBatchSpecs {
		writeErr(w, api.Errorf(api.CodeInvalidArgument,
			"batch of %d specs exceeds the limit of %d", len(req.Specs), h.opts.MaxBatchSpecs))
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()
	req.TimeoutMS = 0 // already applied (and capped) by requestContext
	resp, err := h.r.Query(ctx, req)
	if err != nil {
		writeErr(w, api.FromError(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQueryStream mirrors the node server's NDJSON protocol: provisional
// match records as they pass the router's global top-k gate, then the
// summary with the authoritative merged ranking (or a trailing error
// record after a mid-stream failure).
func (h *Handler) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req api.StreamQuery
	if !decode(w, r, &req) {
		return
	}
	ctx, cancel := h.requestContext(r, req.TimeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	emit := func(m api.Match) error {
		if err := enc.Encode(api.StreamEvent{Match: &m}); err != nil {
			return err
		}
		wrote = true
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	sum, err := h.r.QueryStream(ctx, req.Spec, emit)
	if err != nil {
		ae := api.FromError(err)
		if !wrote {
			writeErr(w, ae)
			return
		}
		_ = enc.Encode(api.StreamEvent{Error: ae})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	_ = enc.Encode(api.StreamEvent{Summary: sum})
	if flusher != nil {
		flusher.Flush()
	}
}

func (h *Handler) handleGetTrajectory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
		return
	}
	ctx, cancel := h.requestContext(r, 0)
	defer cancel()
	rec, terr := h.r.GetTrajectory(ctx, id)
	if terr != nil {
		writeErr(w, api.FromError(terr))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// adminHandler serves one model-admin route: run the fleet call under the
// request's context and answer its result or typed error. POST routes
// first decode the request body into Req.
func adminHandler[Req, Info any](h *Handler, call func(context.Context, Req) (*Info, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if r.Method == http.MethodPost && !decode(w, r, &req) {
			return
		}
		ctx, cancel := h.requestContext(r, 0)
		defer cancel()
		info, err := call(ctx, req)
		if err != nil {
			writeErr(w, api.FromError(err))
			return
		}
		writeJSON(w, http.StatusOK, info)
	}
}

// noBody adapts a readback to adminHandler's request-taking shape.
func noBody[Info any](read func(context.Context) (*Info, error)) func(context.Context, struct{}) (*Info, error) {
	return func(ctx context.Context, _ struct{}) (*Info, error) { return read(ctx) }
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := h.requestContext(r, 0)
	defer cancel()
	resp, err := h.r.Stats(ctx)
	if err != nil {
		writeErr(w, api.FromError(err))
		return
	}
	resp.UptimeSeconds = time.Since(h.start).Seconds()
	resp.Goroutines = runtime.NumGoroutine()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness of the coordinator AND readiness of the
// fleet: 200 only while every shard group has a reachable replica.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	if err := h.r.Health(ctx); err != nil {
		writeErr(w, api.FromError(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
