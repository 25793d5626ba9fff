package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// RejectStatus is the single rejection-reason → HTTP status table the
// handler and its tests share: one row per reason, so a new reason
// that misses the table fails loudly (statusOf maps unknown reasons to
// 500) instead of silently picking a default branch.
var RejectStatus = map[string]int{
	RejectQueueFull: http.StatusTooManyRequests,
	RejectDraining:  http.StatusServiceUnavailable,
	RejectBadSource: http.StatusBadRequest,
	RejectBadClass:  http.StatusBadRequest,
	RejectBadGraph:  http.StatusNotFound,
	RejectDeadline:  http.StatusGatewayTimeout,
}

// statusOf resolves a rejection reason through RejectStatus.
func statusOf(reason string) int {
	if status, ok := RejectStatus[reason]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// QueryRequest is the /v1/query request body.
type QueryRequest struct {
	// Graph names the registered graph to search; empty means the
	// default graph.
	Graph  string `json:"graph,omitempty"`
	Source int64  `json:"source"`
	Class  string `json:"class,omitempty"`
	// DeadlineMs, when positive, is the query's SLO budget in
	// milliseconds from arrival: the server sheds the query (HTTP 504)
	// rather than serve it after the budget elapses.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the hot-source result cache for this query.
	NoCache bool `json:"no_cache,omitempty"`
	// Dist and Parent request the full per-vertex vectors in the
	// response (they are NumVerts entries each, so clients opt in).
	Dist   bool `json:"dist,omitempty"`
	Parent bool `json:"parent,omitempty"`
}

// QueryResponse is the /v1/query response body for a served query.
type QueryResponse struct {
	ID             uint64  `json:"id"`
	Graph          string  `json:"graph"`
	Source         int64   `json:"source"`
	Class          string  `json:"class"`
	Levels         int64   `json:"levels"`
	Reached        int64   `json:"reached"`
	TraversedEdges int64   `json:"traversed_edges"`
	Batch          uint64  `json:"batch"`
	Occupancy      int     `json:"occupancy"`
	Cached         bool    `json:"cached,omitempty"`
	Coalesced      bool    `json:"coalesced,omitempty"`
	QueueWaitNs    int64   `json:"queue_wait_ns"`
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	TEPS           float64 `json:"teps"`

	Dist   []int64 `json:"dist,omitempty"`
	Parent []int64 `json:"parent,omitempty"`
}

// maxQueryBody bounds the bytes the handler reads of a /v1/query body;
// a well-formed QueryRequest is well under 1 KiB.
const maxQueryBody = 64 << 10

// errorBody is the JSON envelope of every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API, versioned under /v1/:
//
//	POST /v1/query   {"graph": "social", "source": 7, "class": "interactive",
//	                  "deadline_ms": 50, "dist": true}
//	GET  /v1/graphs  registered graphs in registration order
//	GET  /v1/metrics per-SLO-class and per-graph Snapshot
//	GET  /v1/healthz {"status": "ok"} — 503 once draining
//
// Rejections map to status codes through RejectStatus (queue_full →
// 429 with a Retry-After backpressure hint, draining → 503,
// bad_source/unknown_class → 400, unknown_graph → 404, deadline →
// 504). The unversioned legacy paths (/query, /metrics, /healthz)
// alias their /v1/ successors and answer with a Deprecation header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/query", deprecated("/v1/query", s.handleQuery))
	mux.HandleFunc("/metrics", deprecated("/v1/metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", deprecated("/v1/healthz", s.handleHealthz))
	return mux
}

// deprecated wraps a legacy alias: same handler, plus the Deprecation
// header and a Link to the successor endpoint.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeReject maps a rejection onto the wire: its RejectStatus row,
// the Retry-After backpressure hint when the server estimated one, and
// the reason in the error envelope.
func writeReject(w http.ResponseWriter, rej *RejectError) {
	if rej.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(rej.RetryAfter)))
	}
	writeJSON(w, statusOf(rej.Reason), errorBody{Error: rej.Reason})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var qr QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&qr); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	q := Query{
		GraphID: qr.Graph, Source: qr.Source, Class: qr.Class,
		NoCache: qr.NoCache,
	}
	if qr.DeadlineMs > 0 {
		q.Deadline = s.clock.Now().Add(time.Duration(qr.DeadlineMs) * time.Millisecond)
	}
	resp, err := s.Do(r.Context(), q)
	if err != nil {
		if rej, ok := AsReject(err); ok {
			writeReject(w, rej)
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	out := QueryResponse{
		ID: resp.ID, Graph: resp.Graph, Source: resp.Source, Class: resp.Class,
		Levels: resp.Levels, Reached: resp.Reached,
		TraversedEdges: resp.TraversedEdges,
		Batch:          resp.Batch, Occupancy: resp.Occupancy,
		Cached: resp.Cached, Coalesced: resp.Coalesced,
		QueueWaitNs:    resp.QueueWait.Nanoseconds(),
		SimTimeSeconds: resp.SimTime, TEPS: resp.TEPS,
	}
	if qr.Dist {
		out.Dist = resp.Dist
	}
	if qr.Parent {
		out.Parent = resp.Parent
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Graphs())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
