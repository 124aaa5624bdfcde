// Package serve is a replica's HTTP surface. Server is the query part:
// the /out (navigation-class) and /query (mining-class) endpoints; it
// owns the request lifecycle the robustness work of this layer is about
// (below). Replica (replica.go) is everything else a serving process
// mounts and the one wiring of an opened dataset shard into a Server.
//
//   - Class split: /out resolves one page's adjacency (the "click a
//     link" traffic class, "nav"), /query runs one of the paper's six
//     Table 3 analyses (the heavy "mining" class). The admission
//     controller prioritizes nav over mining.
//   - Deadline propagation: every request gets a context deadline —
//     the client's ?deadline_ms, clamped, or the server default — and
//     that context flows through admission, the engine, the S-Node
//     reader, and the paced I/O layer, so a dead request stops
//     consuming the serving stack at the next checkpoint.
//   - Load shedding: requests the admission layer rejects (full queue,
//     unmeetable deadline) and requests whose deadline fires while
//     queued or mid-query are answered with 429 plus a Retry-After
//     hint instead of occupying a slot to completion. From the
//     client's perspective both mean the same thing: not served,
//     back off and retry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"snode/internal/admission"
	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Request classes (admission queue names, metric labels).
const (
	ClassNav    = "nav"
	ClassMining = "mining"
)

// ShardInfo marks a server as one shard of a domain-partitioned
// corpus behind a scatter-gather router (cmd/snrouter).
type ShardInfo struct {
	// ID is this shard's index in [0, Count).
	ID int
	// Count is the total shard count K.
	Count int
	// Version is the shard-manifest version the artifacts were built
	// under; the router rejects replicas whose version does not match
	// its manifest (build/serve version skew).
	Version string
}

// Config sizes a Server.
type Config struct {
	// Engine executes the queries. Required. The server derives a
	// Shared copy, so one engine may also be used elsewhere.
	Engine *query.Engine
	// NavEngine, when set, serves /out instead of Engine. Shard mode
	// wires the intra-shard base store here — /out then returns only
	// the edges this shard owns, and the router resolves cross-shard
	// edges through the boundary store — while Engine keeps the
	// boundary-merged stores so mining partials are exact.
	NavEngine *query.Engine
	// Shard, when set, marks this server as one shard of a partitioned
	// corpus: every query response carries X-SNode-Shard /
	// X-SNode-Shard-Version headers, and /query accepts ?partial=1,
	// answering with untruncated group-tagged partial rows for the
	// router's per-query-class merge instead of the final rows.
	Shard *ShardInfo
	// MaxConcurrent bounds requests executing simultaneously
	// (admission slots; <= 0 selects GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds each class's admission wait queue (<= 0 selects
	// 64). Arrivals past a full queue are shed with 429.
	MaxQueue int
	// DefaultDeadline is applied to requests that do not send
	// ?deadline_ms (0 = no default deadline).
	DefaultDeadline time.Duration
	// Registry, when set, receives the serving metrics: the admission
	// counters under "admission_*" and per-class end-to-end latency
	// histograms serve_latency_nav / serve_latency_mining.
	Registry *metrics.Registry
	// Tracer, when set, honors cross-process trace propagation: a
	// request carrying a sampled X-SNode-Trace header (a routed leg
	// whose router-side trace was sampled) is force-traced under this
	// tracer regardless of its SampleEvery — including SampleEvery 0 —
	// without consuming a slot in its 1-in-N rotation. The completed
	// local trace's ID is returned in the X-SNode-Trace-Id response
	// header so the router can fetch the span subtree from this
	// process's /debug/traces export and stitch it. Requests without
	// the header read one absent header and allocate nothing.
	Tracer *trace.Tracer
}

// Server handles the query endpoints. Safe for concurrent use.
type Server struct {
	eng             *query.Engine
	navEng          *query.Engine // /out engine (== eng unless Config.NavEngine)
	ctrl            *admission.Controller
	defaultDeadline time.Duration
	shard           *ShardInfo
	tracer          *trace.Tracer

	navHist    *metrics.Histogram // end-to-end admitted-request latency
	miningHist *metrics.Histogram
}

// New builds a server over the engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	ctrl, err := admission.New(admission.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		Classes: []admission.ClassConfig{
			{Name: ClassNav, MaxQueue: cfg.MaxQueue},
			{Name: ClassMining, MaxQueue: cfg.MaxQueue},
		},
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		eng:             cfg.Engine.Shared(),
		ctrl:            ctrl,
		defaultDeadline: cfg.DefaultDeadline,
		shard:           cfg.Shard,
		tracer:          cfg.Tracer,
	}
	s.navEng = s.eng
	if cfg.NavEngine != nil {
		s.navEng = cfg.NavEngine.Shared()
	}
	if cfg.Registry != nil {
		ctrl.RegisterMetrics(cfg.Registry, "admission")
		s.navHist = cfg.Registry.Histogram("serve_latency_nav", nil)
		s.miningHist = cfg.Registry.Histogram("serve_latency_mining", nil)
	}
	return s, nil
}

// setShardHeaders stamps shard identity on a response so the router
// can verify it is talking to the replica set its manifest describes.
func (s *Server) setShardHeaders(w http.ResponseWriter) {
	if s.shard == nil {
		return
	}
	w.Header().Set("X-SNode-Shard", fmt.Sprintf("%d/%d", s.shard.ID, s.shard.Count))
	w.Header().Set("X-SNode-Shard-Version", s.shard.Version)
}

// Admission exposes the controller (stats for the load harness and
// tests).
func (s *Server) Admission() *admission.Controller { return s.ctrl }

// Register mounts the query endpoints on mux: /out and /query.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/out", s.handleOut)
	mux.HandleFunc("/query", s.handleQuery)
}

// Handler returns a standalone handler serving only the query
// endpoints (the in-process load harness mounts this).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// deadlineCtx derives the request's execution context: the client's
// ?deadline_ms clamped to maxDeadline, else the server default, else
// the bare request context (which still dies when the client hangs
// up — http.Server cancels it).
func (s *Server) deadlineCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	d := s.defaultDeadline
	if raw := r.URL.Query().Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad deadline_ms %q", raw)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	if d <= 0 {
		return ctx, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// startRemote honors cross-process trace propagation: when the request
// carries a sampled X-SNode-Trace header and a tracer is configured,
// the request is force-traced (trace.Tracer.StartLinked — no local
// sampling decision, no rotation slot consumed). The common untraced
// case is one canonical header lookup and a length check: no
// allocations (check-overhead pins this).
func (s *Server) startRemote(ctx context.Context, r *http.Request, class string) (context.Context, *trace.Trace) {
	if s.tracer == nil {
		return ctx, nil
	}
	parent, sampled, ok := trace.ParseHeader(r.Header.Get(trace.HeaderTrace))
	if !ok || !sampled {
		return ctx, nil
	}
	return s.tracer.StartLinked(ctx, class, parent)
}

// finishRemote completes a force-sampled trace and points the caller
// at it: the response header carries the local trace ID, fetchable at
// this process's /debug/traces?id=N while retained. Must run before
// the response status is written (headers freeze at WriteHeader);
// callers invoke it at every exit and keep a deferred call as a
// backstop so the trace is finished even on a panic-recovered path.
// Idempotent via the cleared pointer.
func (s *Server) finishRemote(w http.ResponseWriter, forced **trace.Trace) {
	if *forced == nil {
		return
	}
	s.tracer.Finish(*forced)
	w.Header().Set(trace.HeaderTraceID, strconv.FormatUint((*forced).ID, 10))
	*forced = nil
}

// shedResponse is the 429 body.
type shedResponse struct {
	Error        string `json:"error"`
	Class        string `json:"class"`
	Reason       string `json:"reason"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// writeShed answers a request that was not served to completion: an
// admission reject, or a deadline/cancellation observed anywhere down
// the stack. Always 429 + Retry-After — the uniform "not served, back
// off" signal the open-loop clients key on.
func (s *Server) writeShed(w http.ResponseWriter, class string, err error) {
	reason := admission.ReasonDeadline
	retryAfter := s.ctrl.EstimatedService()
	var shed *admission.ShedError
	if errors.As(err, &shed) {
		reason = shed.Reason
		retryAfter = shed.RetryAfter
	} else if errors.Is(err, context.Canceled) {
		reason = admission.ReasonCanceled
	}
	// Retry-After is whole seconds in HTTP; round up so "retry after
	// 200ms" never becomes "retry immediately".
	w.Header().Set("Retry-After", strconv.FormatInt(int64(math.Ceil(retryAfter.Seconds())), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(shedResponse{
		Error:        err.Error(),
		Class:        class,
		Reason:       reason,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// isShed reports whether err means "request not served, retryable":
// an admission reject or a propagated deadline/cancellation.
func isShed(err error) bool {
	var shed *admission.ShedError
	return errors.As(err, &shed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// OutResponse is the /out body.
type OutResponse struct {
	Page      webgraph.PageID   `json:"page"`
	Neighbors []webgraph.PageID `json:"neighbors"`
}

// maxDeadline clamps client-requested deadlines.
const maxDeadline = 30 * time.Second

// admitted is the lifecycle /out and /query share once their parameters
// have parsed: deadline, cross-process trace, admission slot, end-to-end
// latency sample, run, then the body — JSON, or a partial frame as it is
// — or 429 for a request not served to completion and 500 for an engine
// failure. run gets the admission
// wait, for the trace an engine starts itself.
func (s *Server) admitted(w http.ResponseWriter, r *http.Request, start time.Time, class string, hist *metrics.Histogram,
	run func(ctx context.Context, wait time.Duration) (any, error)) {
	ctx, cancel, err := s.deadlineCtx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	ctx, forced := s.startRemote(ctx, r, class)
	defer s.finishRemote(w, &forced)
	// The forced trace is open across the admission wait, so the stitched
	// subtree shows queueing as its own span (engine-sampled traces start
	// later and get only the root attribute).
	_, span := trace.Start(ctx, "serve.admission")
	acqStart := time.Now()
	release, err := s.ctrl.Acquire(ctx, class)
	wait := time.Since(acqStart)
	span.End()
	if err != nil {
		s.finishRemote(w, &forced)
		s.writeShed(w, class, err)
		return
	}
	defer release()
	forced.SetAttr("admission_wait_ns", int64(wait))
	if hist != nil {
		// Every admitted request observes its end-to-end latency, not
		// just the ones that complete: a request shed mid-query or
		// failing in the engine occupied a slot for exactly this long,
		// and dropping those samples biases the reported p99 at the knee.
		defer func() { hist.ObserveDuration(time.Since(start)) }()
	}
	body, err := run(ctx, wait)
	s.finishRemote(w, &forced)
	if err != nil {
		if isShed(err) {
			s.writeShed(w, class, err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if f, ok := body.(partialFrame); ok {
		// One write with its length, so the response is not chunked.
		w.Header().Set("Content-Type", PartialContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(f)))
		w.Write(f)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleOut serves the navigation class: one page's out-adjacency, in
// canonical ascending page-ID order (the order is part of the contract
// so the router's boundary merge reproduces a single-node response
// row-identically).
func (s *Server) handleOut(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.setShardHeaders(w)
	raw := r.URL.Query().Get("page")
	page, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || page < 0 {
		// page < 0 parses fine but is never a valid PageID; letting it
		// through used to hand a negative index to the engine.
		http.Error(w, fmt.Sprintf("bad page %q", raw), http.StatusBadRequest)
		return
	}
	if n := s.navEng.R.Fwd[s.navEng.Scheme].NumPages(); page >= int64(n) {
		// Refused here, as the router refuses it from its manifest: past
		// this point it would take a slot and a latency sample to fail.
		http.Error(w, fmt.Sprintf("page %d not in corpus (%d pages)", page, n), http.StatusNotFound)
		return
	}
	s.admitted(w, r, start, ClassNav, s.navHist, func(ctx context.Context, wait time.Duration) (any, error) {
		neighbors, tr, err := s.navEng.Neighbors(ctx, webgraph.PageID(page))
		// A trace the engine sampled starts inside it, after the admission
		// wait has already elapsed; attribute it on the root after the
		// fact (nil when unsampled, or composed into the forced trace).
		tr.SetAttr("admission_wait_ns", int64(wait))
		if err != nil {
			return nil, err
		}
		if neighbors == nil {
			neighbors = []webgraph.PageID{}
		}
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
		return OutResponse{Page: webgraph.PageID(page), Neighbors: neighbors}, nil
	})
}

// QueryResponse is the /query body.
type QueryResponse struct {
	Query int         `json:"query"`
	Rows  []query.Row `json:"rows"`
	NavMS float64     `json:"nav_ms"`
}

// handleQuery serves the mining class: one Table 3 analysis. With
// ?partial=1 (the router's scatter request) it answers with the
// shard's untruncated partial rows, in a partial frame (partial.go),
// instead of the final merged rows.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.setShardHeaders(w)
	raw := r.URL.Query().Get("q")
	qn, err := strconv.Atoi(raw)
	if err != nil || qn < int(query.Q1) || qn > int(query.Q6) {
		http.Error(w, fmt.Sprintf("bad q %q (want 1..6)", raw), http.StatusBadRequest)
		return
	}
	partial := r.URL.Query().Get("partial") == "1"
	s.admitted(w, r, start, ClassMining, s.miningHist, func(ctx context.Context, wait time.Duration) (body any, err error) {
		// The plan runs under a pprof label, so a CPU profile of a serving
		// process splits by query class (go tool pprof -tagfocus query=q3):
		// one label set per request, inherited by any goroutine the plan
		// starts. /out carries none — its hit path is too short to pay for
		// one.
		q := query.ID(qn)
		pprof.Do(ctx, pprof.Labels("query", q.Class()), func(ctx context.Context) {
			body, err = s.runQuery(ctx, q, partial, wait)
		})
		return body, err
	})
}

// runQuery executes q and shapes the response body: the final rows, or
// for a router's scatter request the shard's untruncated partial rows as
// one frame. Both come from the same plan through the engine's one
// instrumented entry; only the row shape differs. A trace the engine
// sampled starts after the admission wait, so the wait goes on its root
// as an attribute, on either path.
func (s *Server) runQuery(ctx context.Context, q query.ID, partial bool, admissionWait time.Duration) (any, error) {
	if partial {
		res, err := s.eng.RunPartial(ctx, q)
		if err != nil {
			return nil, err
		}
		res.Trace.SetAttr("admission_wait_ns", int64(admissionWait))
		shardID := 0
		if s.shard != nil {
			shardID = s.shard.ID
		}
		return encodePartial(&PartialQueryResponse{
			Query:    int(q),
			Shard:    shardID,
			Partials: res.Rows,
			NavMS:    float64(res.Nav.Total()) / float64(time.Millisecond),
		}), nil
	}
	res, err := s.eng.Run(ctx, q)
	if err != nil {
		return nil, err
	}
	res.Trace.SetAttr("admission_wait_ns", int64(admissionWait))
	rows := res.Rows
	if rows == nil {
		rows = []query.Row{}
	}
	return QueryResponse{
		Query: int(q),
		Rows:  rows,
		NavMS: float64(res.Nav.Total()) / float64(time.Millisecond),
	}, nil
}
