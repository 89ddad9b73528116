package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"simsub/api"
	"simsub/internal/rl"
	"simsub/internal/t2vec"
)

// This file holds the v2 endpoints, which speak the api package's wire
// types natively: batched top-k queries, NDJSON match streaming, and
// trajectory retrieval by global ID.

// QueryHandler serves POST /v2/query over any api.Searcher — the node's
// engine or the distributed router: a batch of specs, one QueryResult per
// spec in order, bounded by min(timeout_ms, maxTimeout). Spec-level
// failures are reported inside their result; only envelope-level problems
// (no specs, a batch over maxSpecs, bad JSON) fail the request.
func QueryHandler(s api.Searcher, maxTimeout time.Duration, maxSpecs int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.Query
		if !Decode(w, r, &req) {
			return
		}
		if len(req.Specs) > maxSpecs {
			WriteErr(w, api.Errorf(api.CodeInvalidArgument,
				"batch of %d specs exceeds the limit of %d", len(req.Specs), maxSpecs))
			return
		}
		ctx, cancel := RequestContext(r, req.TimeoutMS, maxTimeout)
		defer cancel()
		req.TimeoutMS = 0 // already applied (and capped) by RequestContext
		resp, err := s.Query(ctx, req)
		if err != nil {
			WriteErr(w, api.FromError(err))
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// QueryStreamHandler serves POST /v2/query/stream over any
// api.StreamSearcher: one spec whose matches are delivered as NDJSON
// StreamEvent records the moment they enter the running top-k, each
// followed by a flush so clients see answers while the scan is still
// running, terminated by a summary record carrying the authoritative final
// ranking. Failures before the first record use the ordinary error
// envelope and status; failures mid-stream arrive as a trailing error
// record (the status line is long gone by then).
func QueryStreamHandler(s api.StreamSearcher, maxTimeout time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.StreamQuery
		if !Decode(w, r, &req) {
			return
		}
		ctx, cancel := RequestContext(r, req.TimeoutMS, maxTimeout)
		defer cancel()

		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		send := func(ev api.StreamEvent) error {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		wrote := false
		sum, err := s.QueryStream(ctx, req.Spec, func(m api.Match) error {
			wrote = true
			return send(api.StreamEvent{Match: &m})
		})
		switch {
		case err == nil:
			_ = send(api.StreamEvent{Summary: sum})
		case !wrote:
			WriteErr(w, api.FromError(err))
		default:
			_ = send(api.StreamEvent{Error: api.FromError(err)})
		}
	}
}

// handleGetTrajectory answers GET /v2/trajectories/{id} with the stored
// trajectory, or a not_found typed error for an unassigned ID.
func (s *Server) handleGetTrajectory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteErr(w, api.Errorf(api.CodeInvalidArgument, "trajectory id %q is not an integer", r.PathValue("id")))
		return
	}
	t, ok := s.eng.Traj(id)
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no trajectory with id %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, api.TrajectoryRecord{ID: id, Trajectory: api.FromTraj(t)})
}

// loadModel parses the model a swap request names: exactly one of a
// server-local file path or caller-supplied base64 bytes. kind ("policy"
// or "encoder") names the model in errors and in the base64 field. A
// missing file is not_found and any other read failure internal — an
// I/O problem, not a bad model, so the operator is not sent off to
// re-train. A file that fails to parse is reported without its parse
// error, which can echo fragments of a server-local file; caller-supplied
// bytes get the full parse error, which leaks nothing.
func loadModel[M any](kind, path, b64 string, parse func(io.Reader) (M, error)) (M, *api.Error) {
	var zero M
	if (path == "") == (b64 == "") {
		return zero, api.Errorf(api.CodeInvalidArgument, "exactly one of path or %s_b64 must be set", kind)
	}
	var raw []byte
	var err error
	if path != "" {
		raw, err = os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return zero, api.Errorf(api.CodeNotFound, "%s file %q does not exist", kind, path)
		}
		if err != nil {
			var perr *fs.PathError
			if errors.As(err, &perr) {
				err = perr.Err // the message names the path already
			}
			return zero, api.Errorf(api.CodeInternal, "reading %s file %q: %v", kind, path, err)
		}
	} else if raw, err = base64.StdEncoding.DecodeString(b64); err != nil {
		return zero, api.Errorf(api.CodeInvalidArgument, "decoding %s_b64: %v", kind, err)
	}
	m, err := parse(bytes.NewReader(raw))
	if err != nil {
		if path != "" {
			return zero, api.Errorf(api.CodeInvalidArgument, "file %q is not a valid %s", path, kind)
		}
		return zero, api.Errorf(api.CodeInvalidArgument, "loading %s: %v", kind, err)
	}
	return m, nil
}

// handlePolicySwap answers POST /v2/admin/policy: load a policy (see
// loadModel), validate it, and register it as the serving policy of the
// "rls" / "rls-skip" algorithms, compiled onto a lookup table when
// compile_resolution > 0. The swap purges the result cache and changes
// the policy fingerprint, so no cached ranking computed under the
// previous policy can ever be served again. A policy that fails
// validation (corrupted file, inconsistent network shape, non-finite
// weights, unservable resolution) is rejected with invalid_argument and
// the previous registration keeps serving.
func (s *Server) handlePolicySwap(w http.ResponseWriter, r *http.Request) {
	var req api.PolicySwapRequest
	if !Decode(w, r, &req) {
		return
	}
	p, aerr := loadModel("policy", req.Path, req.PolicyB64, rl.Load)
	if aerr != nil {
		WriteErr(w, aerr)
		return
	}
	info, err := s.eng.SetPolicyCompiled(p, req.CompileResolution)
	if err != nil {
		WriteErr(w, api.FromError(err))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleEncoderSwap answers POST /v2/admin/encoder: load a t2vec encoder
// (see loadModel) and register it as the corpus embedder. Registration
// re-embeds every stored trajectory, rebuilds the per-shard ANN indexes,
// purges the result cache and changes the encoder fingerprint — so the
// ann prefilter and the "embed" ranking switch atomically and no stale
// cached ranking survives. An encoder that fails to parse is rejected
// with invalid_argument and the previous registration keeps serving.
func (s *Server) handleEncoderSwap(w http.ResponseWriter, r *http.Request) {
	var req api.EncoderSwapRequest
	if !Decode(w, r, &req) {
		return
	}
	m, aerr := loadModel("encoder", req.Path, req.EncoderB64, t2vec.Load)
	if aerr != nil {
		WriteErr(w, aerr)
		return
	}
	info, err := s.eng.SetEncoder(m)
	if err != nil {
		WriteErr(w, api.FromError(err))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handlePolicyGet answers GET /v2/admin/policy with the registered
// policy's description, or a typed not_found when none is loaded.
func (s *Server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.eng.Policy()
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no policy loaded"))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleEncoderGet answers GET /v2/admin/encoder with the registered
// encoder's description, or a typed not_found when none is loaded.
func (s *Server) handleEncoderGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.eng.Encoder()
	if !ok {
		WriteErr(w, api.Errorf(api.CodeNotFound, "no encoder loaded"))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}
