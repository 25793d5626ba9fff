// Package serve is the batching BFS query front end: a long-running
// server that accepts single-source BFS queries against a registry of
// named graphs, forms them into multi-source (MS-BFS) batches of up to
// pbfs.BatchWidth sources per graph, and runs each batch through that
// graph's pbfs.SessionPool so every query shares the batch's edge
// scans and collectives. It is the ROADMAP's "serving-layer depth"
// item: the bit-parallel kernel amortizes the machine work, this
// package turns that amortization into served traffic.
//
// The v1 request surface is the Query struct (graph ID, source, SLO
// class, deadline) submitted through Server.SubmitQuery/Do; the HTTP
// form lives under /v1/ (http.go). Per registered graph the pipeline
// is cache → queue → former → session pool:
//
//   - A bounded LRU of completed (graph, source) result planes answers
//     repeated hot sources without touching the kernel, and in-queue
//     duplicates coalesce onto the queued request (single-flight), so
//     Zipf-skewed traffic pays one traversal per hot source.
//   - Queue admits requests under a bounded depth and rejects with a
//     typed *RejectError (queue_full carries a queue-delay-derived
//     RetryAfter hint) when it cannot — saturation is a fast failure,
//     not an unbounded backlog.
//   - Former decides when a batch dispatches: immediately when
//     BatchMax requests are pending, when the oldest pending request
//     has waited MaxWait, or when a pending deadline would otherwise
//     be missed. It is driven by explicit time.Time arguments (an
//     injected clock), so scheduling is deterministic under test.
//   - Requests carry an optional Deadline: ones that cannot be served
//     in time (queue delay plus the graph's estimated batch service
//     time, an EWMA of recent batches' simulated machine seconds)
//     are shed with RejectDeadline instead of served late; the Slack
//     policy orders dispatch by time-to-deadline.
//   - Policy orders the pending requests at dispatch: FCFS, SJF by
//     estimated frontier work, Priority with aging, or Slack.
//
// Metrics are tracked per SLO class and per graph (queue-wait and
// amortized-latency percentiles, batch occupancy, cache hit rates,
// deadline sheds, harmonic-mean TEPS) and exposed, together with
// /v1/query, /v1/graphs and /v1/healthz, by the HTTP handler in
// http.go. Shutdown drains: admission stops, every graph's queue
// flushes through its former, and every request still in flight
// receives exactly one response.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Clock supplies timestamps to the serving pipeline. The Former takes
// explicit time.Time arguments, so any Clock (notably FakeClock) makes
// batch formation deterministic; the Server stamps arrivals with its
// configured Clock and uses real timers only to wake its loops.
type Clock interface {
	Now() time.Time
}

// Wall is the real-time clock.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced Clock for deterministic tests and
// benchmarks. The zero value starts at the zero time; it is safe for
// concurrent use.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a fake clock reading start.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{t: start} }

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Class is an SLO class: a named service tier whose priority orders
// queries under the Priority policy and whose metrics are reported
// separately.
type Class struct {
	Name     string
	Priority int
}

// DefaultClass is the class an empty Query.Class resolves to.
const DefaultClass = "standard"

// DefaultClasses returns the built-in three-tier SLO ladder.
func DefaultClasses() []Class {
	return []Class{
		{Name: "interactive", Priority: 2},
		{Name: DefaultClass, Priority: 1},
		{Name: "batch", Priority: 0},
	}
}

// Query is one BFS query in the v1 request API: every submission
// surface (SubmitQuery, Do, the /v1/query HTTP body, the deterministic
// Harness) builds one of these, so new request attributes extend this
// struct instead of every call signature.
type Query struct {
	// GraphID names the registered graph to search; empty means the
	// default (first-registered) graph.
	GraphID string
	// Source is the BFS root, in [0, NumVerts) of the target graph.
	Source int64
	// Class is the SLO class; empty resolves to DefaultClass.
	Class string
	// Deadline, when nonzero, is the latest server-clock instant the
	// response is useful at. A query that cannot be served by then —
	// judged against the graph's estimated batch service time — is
	// shed with RejectDeadline instead of served late; a zero Deadline
	// opts out of deadline scheduling.
	Deadline time.Time
	// NoCache bypasses the result cache for this query (it still
	// populates the cache on completion). Diagnostic traffic that must
	// hit the kernel sets it.
	NoCache bool
}

// Request is one admitted BFS query waiting for (or riding in) a
// batch. Exported fields are set at admission and read by policies;
// tests may construct Requests directly.
type Request struct {
	ID       uint64
	Graph    string
	Source   int64
	Class    string
	Priority int   // base priority, from the request's Class
	Est      int64 // estimated frontier work: the source's degree
	Enqueued time.Time
	Deadline time.Time // zero = no deadline

	// seq is the admission order, the FCFS key and every policy's
	// tie-break; done receives exactly one Response (buffered, so
	// completion never blocks on a slow reader); riders are coalesced
	// duplicate queries for the same (graph, source) that share this
	// request's traversal (guarded by the owning worker's mutex).
	seq    uint64
	done   chan *Response
	riders []*Request
}

// Response is the outcome of one query: a served BFS (Dist and Parent
// populated) or a failure carried entirely by Err. Rejections — the
// only non-served outcome the server produces — are always a typed
// *RejectError in Err, so there is exactly one error surface: Err nil
// means served, Err non-nil means not served, and errors.As recovers
// the rejection reason.
type Response struct {
	ID     uint64
	Graph  string
	Source int64
	Class  string
	// Err is non-nil iff the query was not served. Admission and
	// scheduling rejections are *RejectError (see Reject); batch
	// execution failures are the engine's error.
	Err error

	Dist    []int64
	Parent  []int64
	Levels  int64
	Reached int64

	// Batch and Occupancy identify the ride: which dispatch the query
	// was served by and how many distinct sources shared its traversal.
	// Cached responses report the batch that originally produced the
	// plane; Cached marks them, and Coalesced marks responses that rode
	// another in-queue request for the same source.
	Batch     uint64
	Occupancy int
	Cached    bool
	Coalesced bool
	// QueueWait runs from admission to completion (Completed minus the
	// request's Enqueued stamp), so it includes the batch's execution;
	// Completed is the completion instant. Both are on the server's
	// clock; the deadline guarantee is !Completed.After(request.Deadline)
	// for every served query.
	QueueWait time.Duration
	Completed time.Time
	// SimTime is the query's amortized share of the batch's simulated
	// machine seconds (zero without a Machine profile); TEPS is the
	// query's traversed-edges rate at that amortized time.
	SimTime float64
	TEPS    float64
	// TraversedEdges counts the undirected edges incident to the
	// query's reached set: the TEPS denominator.
	TraversedEdges int64
}

// Reject returns the response's rejection, or nil if the query was
// served or failed with a non-rejection error.
func (r *Response) Reject() *RejectError {
	var rej *RejectError
	if errors.As(r.Err, &rej) {
		return rej
	}
	return nil
}

// Rejection reasons.
const (
	RejectQueueFull = "queue_full"
	RejectDraining  = "draining"
	RejectBadSource = "bad_source"
	RejectBadClass  = "unknown_class"
	RejectBadGraph  = "unknown_graph"
	RejectDeadline  = "deadline"
)

// RejectError is the typed not-served error: the query was refused at
// admission, shed by deadline scheduling, or flushed at drain, for the
// given Reason. It is the single rejection surface — both the error
// returned by SubmitQuery/Do and the Err of a Response that was not
// served are of this type.
type RejectError struct {
	Reason string
	// RetryAfter, when positive, is the server's backpressure hint:
	// the estimated queue delay after which a retry may be admitted.
	// Set on queue_full rejections; surfaced as the HTTP Retry-After
	// header.
	RetryAfter time.Duration
}

func (e *RejectError) Error() string { return fmt.Sprintf("serve: rejected: %s", e.Reason) }

// AsReject returns err as a *RejectError when it is one.
func AsReject(err error) (*RejectError, bool) {
	var rej *RejectError
	ok := errors.As(err, &rej)
	return rej, ok
}
