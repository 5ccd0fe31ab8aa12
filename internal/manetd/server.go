// Package manetd is the HTTP/JSON front-end of the campaign service
// (DESIGN.md §11): scenario Specs — the PR 2 JSON format, unchanged —
// arrive over the wire, are queued as campaigns on the worker-pool
// engine through internal/campaign, and the campaign lifecycle is
// exposed as a small REST surface:
//
//	POST   /v1/campaigns        submit one Spec, a sweep, or presets
//	GET    /v1/campaigns        list campaigns (X-Tenant scoped)
//	GET    /v1/campaigns/{id}   status; ?watch=1 streams NDJSON updates
//	DELETE /v1/campaigns/{id}   cancel
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus-style exposition
//
// The package holds everything but func main, so the whole lifecycle is
// exercisable in-process with httptest; cmd/manetd is the thin binary.
package manetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// DefaultTenant names submissions that carry no X-Tenant header.
const DefaultTenant = "default"

// Config parameterizes the service.
type Config struct {
	// Campaign is handed to campaign.NewManager verbatim.
	Campaign campaign.Config
	// WatchHeartbeat bounds how long a watch stream stays silent before
	// re-emitting the current snapshot (default 15s; tests shorten it).
	WatchHeartbeat time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (DESIGN.md
	// §11). Off by default: the profiling surface leaks heap contents and
	// symbol names, so it is opt-in (cmd/manetd's -pprof flag) and meant
	// to stay behind the same trust boundary as the rest of the API.
	EnablePprof bool
}

// Server is the manetd HTTP service: an http.Handler plus the campaign
// manager it fronts.
type Server struct {
	mgr       *campaign.Manager
	mux       *http.ServeMux
	heartbeat time.Duration
}

// New builds a Server and starts its campaign manager.
func New(cfg Config) *Server {
	s := &Server{
		mgr:       campaign.NewManager(cfg.Campaign),
		mux:       http.NewServeMux(),
		heartbeat: cfg.WatchHeartbeat,
	}
	if s.heartbeat <= 0 {
		s.heartbeat = 15 * time.Second
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// net/http/pprof registers on http.DefaultServeMux at init; the
		// service runs its own mux, so the handlers are mounted explicitly.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Manager exposes the campaign manager (the CLIs' in-process load
// harness drives it directly; main wires shutdown through it).
func (s *Server) Manager() *campaign.Manager { return s.mgr }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close force-stops the campaign manager (tests; main drains first).
func (s *Server) Close() { s.mgr.Close() }

// tenant resolves the request's tenant.
func tenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return DefaultTenant
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // nothing useful to do about a broken client socket
}

// writeError renders {"error": ...} with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// submitRequest is the POST /v1/campaigns envelope. Exactly the fields
// below are accepted (unknown keys are rejected, like the Spec format
// itself); spec payloads are full scenario Specs in the PR 2 JSON
// format, validated through the same scenario.Parse path the CLIs use.
type submitRequest struct {
	// Spec is a single inline scenario; Specs a sweep of them; Presets
	// names from the built-in registry. At least one spec must result.
	Spec    json.RawMessage   `json:"spec,omitempty"`
	Specs   []json.RawMessage `json:"specs,omitempty"`
	Presets []string          `json:"presets,omitempty"`
	// Trials, Workers and Seed mirror campaign.RunOpts.
	Trials  int    `json:"trials,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
}

// maxSubmitBytes caps a POST /v1/campaigns body. A sweep of inline
// specs fits in a few KiB; the cap keeps a hostile or broken client from
// making the decoder buffer an unbounded body.
const maxSubmitBytes = 1 << 20

// handleSubmit implements POST /v1/campaigns.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxSubmitBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	var specs []scenario.Spec
	addRaw := func(raw json.RawMessage) error {
		spec, err := scenario.Parse(raw)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		return nil
	}
	if len(req.Spec) > 0 {
		if err := addRaw(req.Spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	for _, raw := range req.Specs {
		if err := addRaw(raw); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	for _, name := range req.Presets {
		spec, ok := scenario.Get(name)
		if !ok {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown preset %q (known: %v)", name, scenario.Names()))
			return
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("request names no scenario: provide spec, specs or presets"))
		return
	}

	c, err := s.mgr.Submit(tenant(r), specs, campaign.RunOpts{
		Trials:  req.Trials,
		Workers: req.Workers,
		Seed:    req.Seed,
	})
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+c.ID)
	writeJSON(w, http.StatusAccepted, c)
}

// submitStatus maps a Submit error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, campaign.ErrRateLimited),
		errors.Is(err, campaign.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, campaign.ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, campaign.ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// handleList implements GET /v1/campaigns. The tenant header scopes the
// listing; ?all=1 lists every tenant (an operator surface — the service
// trusts its callers today, authn being a front-proxy concern).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	t := tenant(r)
	if r.URL.Query().Get("all") == "1" {
		t = ""
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.mgr.List(t)})
}

// handleGet implements GET /v1/campaigns/{id}: a JSON snapshot, an
// NDJSON update stream with ?watch=1 (or Accept: application/x-ndjson),
// or — with ?trace=1 — the run-trace NDJSON of one finished run
// (?run=N selects the run index, default 0; pipe it into reprotrace).
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, campaign.ErrNotFound)
		return
	}
	if r.URL.Query().Get("trace") == "1" {
		s.serveTrace(w, r, c)
		return
	}
	watch := r.URL.Query().Get("watch") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if !watch {
		writeJSON(w, http.StatusOK, c)
		return
	}
	s.stream(w, r, id)
}

// serveTrace streams one run's recorded NDJSON trace. 404 when the run
// index is out of range; 409 when the run has not finished; 404 with an
// explanatory body when the spec requested no trace.
func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request, c *campaign.Campaign) {
	idx := 0
	if q := r.URL.Query().Get("run"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad run index %q: %w", q, err))
			return
		}
		idx = n
	}
	if idx < 0 || idx >= len(c.Runs) {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("run %d outside campaign's %d runs", idx, len(c.Runs)))
		return
	}
	run := &c.Runs[idx]
	if !run.State.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("run %d is %s; traces stream once the run finishes", idx, run.State))
		return
	}
	tr := run.Trace()
	if tr == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("run %d carries no trace: the spec did not set trace.enabled", idx))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(tr) // nothing useful to do about a broken client socket
}

// stream writes one compact JSON snapshot line per campaign update
// until the campaign reaches a terminal state, the client goes away, or
// the server drains. Updates coalesce: a slow reader skips intermediate
// snapshots and always sees the latest.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, id string) {
	updates, stop := s.mgr.Watch(id)
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	heartbeat := time.NewTimer(s.heartbeat)
	defer heartbeat.Stop()
	for {
		c, ok := s.mgr.Get(id)
		if !ok {
			return
		}
		if err := enc.Encode(c); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if c.Terminal() {
			return
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(s.heartbeat)
		select {
		case <-r.Context().Done():
			return
		case <-updates:
		case <-heartbeat.C:
		}
	}
}

// handleCancel implements DELETE /v1/campaigns/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, err := s.mgr.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, campaign.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, campaign.ErrTerminal):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, c)
	}
}

// handleHealthz implements GET /healthz: 200 while serving, 503 once
// draining — the signal a load balancer needs to rotate the instance
// out while running campaigns finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.mgr.Stats().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
