package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// TenantHeader names the request header selecting the tenant; requests
// without it (or a ?tenant= query override) belong to "default".
const TenantHeader = "X-Philly-Tenant"

// MaxSpecBytes bounds a submitted Spec body. A Spec is a few hundred
// bytes; the cap keeps one request from making the server read an
// unbounded body.
const MaxSpecBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST   /v1/studies             submit a Spec (202 queued, 200 cache hit,
//	                               400 malformed, 413 over MaxSpecBytes,
//	                               429 overloaded + Retry-After)
//	GET    /v1/studies/{id}        job status
//	GET    /v1/studies/{id}/result completed export JSON (409 until done)
//	GET    /v1/studies/{id}/events progress stream (SSE; ?stream=ndjson for
//	                               chunked JSON lines)
//	DELETE /v1/studies/{id}        cancel
//	GET    /v1/stats               admission/cache/tenant counters
//	GET    /v1/healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/studies/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/studies/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// requestTenant resolves the request's tenant.
func requestTenant(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return "default"
}

// submitResponse is the POST /v1/studies body.
type submitResponse struct {
	JobStatus
	ResultURL string `json:"result_url,omitempty"`
	EventsURL string `json:"events_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding spec: %w", err))
		return
	}
	j, err := s.Submit(requestTenant(r), spec)
	if err != nil {
		var over ErrOverloaded
		switch {
		case errors.As(err, &over):
			w.Header().Set("Retry-After", strconv.Itoa(over.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	resp := submitResponse{
		JobStatus: j.Status(),
		EventsURL: "/v1/studies/" + j.ID + "/events",
	}
	code := http.StatusAccepted
	if resp.State == StateDone {
		// Served from the result cache: the answer already exists.
		code = http.StatusOK
		resp.ResultURL = "/v1/studies/" + j.ID + "/result"
	}
	writeJSON(w, code, resp)
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown study %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("study %s is %s; result exists only for done studies", j.ID, st.State))
		return
	}
	export := j.Export()
	w.Header().Set("Content-Type", "application/json")
	w.Write(export)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleEvents streams job progress until the job reaches a terminal
// state, the client goes away, or the server shuts down. Server-Sent
// Events by default ("progress" events, then one "done"); ?stream=ndjson
// sends the same snapshots as chunked JSON lines.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	mode := r.URL.Query().Get("stream")
	if mode == "" {
		mode = "sse"
	}
	if mode != "sse" && mode != "ndjson" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown stream mode %q (want sse or ndjson)", mode))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if mode == "sse" {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	write := func(event string, st JobStatus) {
		b, _ := json.Marshal(st)
		if mode == "sse" {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		} else {
			w.Write(append(b, '\n'))
		}
		if canFlush {
			flusher.Flush()
		}
	}

	for {
		// Grab the change channel before the snapshot: an update landing
		// between snapshot and wait closes this channel, so it cannot be
		// missed.
		changed := j.changeCh()
		st := j.Status()
		if st.State.terminal() {
			write(streamEventName(st.State), st)
			return
		}
		write("progress", st)
		select {
		case <-changed:
		case <-j.Finished():
		case <-r.Context().Done():
			return
		case <-s.quit:
			// Shutdown: emit the final snapshot (likely canceled) and end
			// the stream rather than holding the connection open.
			write(streamEventName(j.Status().State), j.Status())
			return
		}
	}
}

// streamEventName maps a terminal state to its SSE event name.
func streamEventName(st JobState) string {
	if st.terminal() {
		return strings.ToLower(string(st))
	}
	return "progress"
}
