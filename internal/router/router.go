// Package router is the scatter-gather front of the distributed
// serving tier: one process that owns a shard manifest, fans /out and
// /query out to the shard replicas over HTTP, and merges the partials
// into responses row-identical to a single-node server's.
//
// Per query class:
//
//   - /out (navigation) routes to the ONE shard owning the page — the
//     common case, thanks to the domain partition — and appends the
//     page's cross-shard targets from the forward boundary store the
//     router keeps resident, so the client sees the full adjacency.
//   - /query (mining) scatters ?partial=1 to EVERY shard, then merges
//     the untruncated group-tagged partial rows with the query's merge
//     class (query.MergePartials).
//
// Replica health is tracked per URL: EjectAfter consecutive failures
// stop a replica from being picked, a background prober re-admits it
// when /healthz answers again, and any successful response heals it
// immediately. A failed leg fails over to the shard's next replica
// within the same request; only when every replica of a shard is down
// does the request fail (503). 429s from shards are not failures —
// they aggregate into one 429 whose Retry-After is the maximum hint
// any shard returned, so the client backs off enough for the slowest
// member.
package router

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Config sizes a Router.
type Config struct {
	// Manifest describes the partition the replicas serve. Required.
	Manifest *shard.Manifest
	// Boundaries are the per-shard FORWARD boundary stores (cross-shard
	// out-edges of pages each shard owns), indexed by shard. Required,
	// len == Manifest.NumShards. shard.LoadFwdBoundaries loads them.
	Boundaries []*shard.Boundary
	// Replicas lists each shard's replica base URLs
	// ("http://host:port"), indexed by shard. Every shard needs at
	// least one.
	Replicas [][]string
	// Client issues the fan-out requests (default: a plain
	// http.Client; per-leg deadlines come from ShardTimeout/ctx).
	Client *http.Client
	// ShardTimeout bounds each leg of a fan-out (default 5s); the
	// request's own deadline still applies on top.
	ShardTimeout time.Duration
	// EjectAfter is the consecutive-failure count that ejects a replica
	// from selection (default 3).
	EjectAfter int
	// ProbeInterval is the ejected-replica health-probe period
	// (default 500ms; <0 disables the prober — tests drive Probe
	// directly).
	ProbeInterval time.Duration
	// Registry, when set, receives the router_* counters and the
	// per-class end-to-end latency histograms router_latency_nav /
	// router_latency_mining (p99-side buckets carry exemplars naming
	// stitched distributed traces), and backs the /metrics and
	// /metrics.json endpoints Register mounts.
	Registry *metrics.Registry
	// Tracer, when set, samples routed requests: the fan-out and merge
	// become router.fanout / router.merge spans, every fan-out leg of a
	// sampled request carries the X-SNode-Trace header so shards
	// force-trace it, and the shards' completed span subtrees are
	// fetched back and stitched into one distributed trace, served at
	// /debug/traces (Register mounts it). Untraced requests add no
	// header and no allocations to the fan-out.
	Tracer *trace.Tracer
}

// replica is one backend URL plus its health state and the federation
// scrape cache: the last successful /metrics.json snapshot, served
// with a staleness mark when the replica stops answering.
type replica struct {
	url     string
	fails   atomic.Int32
	healthy atomic.Bool

	scrapeMu sync.Mutex
	lastSnap *metrics.Snapshot
	lastAt   time.Time
}

// shardSet is one shard's replicas with a round-robin cursor.
type shardSet struct {
	replicas []*replica
	next     atomic.Uint32
}

// candidates returns the replicas to try, healthy first (starting at
// the round-robin cursor), ejected ones last — a fully-ejected shard
// is still attempted, since in-band success heals immediately.
func (s *shardSet) candidates() []*replica {
	n := len(s.replicas)
	start := int(s.next.Add(1)-1) % n
	out := make([]*replica, 0, n)
	var down []*replica
	for i := 0; i < n; i++ {
		r := s.replicas[(start+i)%n]
		if r.healthy.Load() {
			out = append(out, r)
		} else {
			down = append(down, r)
		}
	}
	return append(out, down...)
}

// Router fans requests out to shard replicas. Safe for concurrent use.
type Router struct {
	manifest   *shard.Manifest
	boundaries []*shard.Boundary
	shards     []*shardSet
	client     *http.Client
	timeout    time.Duration
	ejectAfter int
	tracer     *trace.Tracer

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	reg *metrics.Registry

	navRequests, miningRequests *metrics.Counter
	failovers, fanoutErrors     *metrics.Counter
	shedTotal                   *metrics.Counter
	navShed, miningShed         *metrics.Counter
	navErrors, miningErrors     *metrics.Counter
	ejections, readmissions     *metrics.Counter
	versionSkew                 *metrics.Counter
	stitched, stitchErrors      *metrics.Counter

	navLatency, miningLatency *metrics.Histogram
}

// New builds a router and, unless ProbeInterval < 0, starts its
// health prober. Call Close to stop it.
func New(cfg Config) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("router: Config.Manifest required")
	}
	k := cfg.Manifest.NumShards
	if len(cfg.Boundaries) != k {
		return nil, fmt.Errorf("router: %d boundary stores for %d shards", len(cfg.Boundaries), k)
	}
	if len(cfg.Replicas) != k {
		return nil, fmt.Errorf("router: replica lists for %d shards, want %d", len(cfg.Replicas), k)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 5 * time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	r := &Router{
		manifest:   cfg.Manifest,
		boundaries: cfg.Boundaries,
		client:     cfg.Client,
		timeout:    cfg.ShardTimeout,
		ejectAfter: cfg.EjectAfter,
		tracer:     cfg.Tracer,
		stopProbe:  make(chan struct{}),
	}
	for s, urls := range cfg.Replicas {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		set := &shardSet{}
		for _, u := range urls {
			rep := &replica{url: u}
			rep.healthy.Store(true)
			set.replicas = append(set.replicas, rep)
		}
		r.shards = append(r.shards, set)
	}
	if reg := cfg.Registry; reg != nil {
		r.reg = reg
		r.navRequests = reg.Counter("router_nav_requests")
		r.miningRequests = reg.Counter("router_mining_requests")
		r.failovers = reg.Counter("router_failovers")
		r.fanoutErrors = reg.Counter("router_fanout_errors")
		r.shedTotal = reg.Counter("router_shed")
		r.navShed = reg.Counter("router_nav_shed")
		r.miningShed = reg.Counter("router_mining_shed")
		r.navErrors = reg.Counter("router_nav_errors")
		r.miningErrors = reg.Counter("router_mining_errors")
		r.ejections = reg.Counter("router_replica_ejected")
		r.readmissions = reg.Counter("router_replica_readmitted")
		r.versionSkew = reg.Counter("router_version_skew")
		r.stitched = reg.Counter("router_traces_stitched")
		r.stitchErrors = reg.Counter("router_stitch_errors")
		r.navLatency = reg.Histogram("router_latency_nav", nil)
		r.miningLatency = reg.Histogram("router_latency_mining", nil)
	}
	if cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop(cfg.ProbeInterval)
	}
	return r, nil
}

// Close stops the health prober.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stopProbe) })
	r.probeWG.Wait()
}

// Register mounts the routed endpoints on mux, plus the observability
// surface the router owns: /cluster/metrics always; /metrics and
// /metrics.json when a Registry is configured; /debug/traces when a
// Tracer is configured.
func (r *Router) Register(mux *http.ServeMux) {
	mux.HandleFunc("/out", r.handleOut)
	mux.HandleFunc("/query", r.handleQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/cluster/metrics", r.handleClusterMetrics)
	if r.reg != nil {
		mux.Handle("/metrics", r.reg.Handler())
		mux.Handle("/metrics.json", r.reg.JSONHandler())
	}
	if r.tracer != nil {
		mux.Handle("/debug/traces", trace.Handler(r.tracer))
	}
}

// Handler returns a standalone handler serving the routed endpoints.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	r.Register(mux)
	return mux
}

// inc bumps a counter that may be nil (no registry).
func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// markFailed records a replica failure and ejects it at the threshold.
func (r *Router) markFailed(rep *replica) {
	if int(rep.fails.Add(1)) >= r.ejectAfter && rep.healthy.CompareAndSwap(true, false) {
		inc(r.ejections)
	}
}

// markOK heals a replica on any successful in-band response.
func (r *Router) markOK(rep *replica) {
	rep.fails.Store(0)
	if rep.healthy.CompareAndSwap(false, true) {
		inc(r.readmissions)
	}
}

// probeLoop periodically re-probes ejected replicas.
func (r *Router) probeLoop(every time.Duration) {
	defer r.probeWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stopProbe:
			return
		case <-t.C:
			r.Probe()
		}
	}
}

// Probe health-checks every ejected replica once and re-admits the
// ones whose /healthz answers 200. Exported so tests (and operators)
// can force a probe round instead of waiting out the interval.
func (r *Router) Probe() {
	for _, set := range r.shards {
		for _, rep := range set.replicas {
			if rep.healthy.Load() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
			if err != nil {
				cancel()
				continue
			}
			resp, err := r.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			if err == nil && resp.StatusCode == http.StatusOK {
				rep.fails.Store(0)
				if rep.healthy.CompareAndSwap(false, true) {
					inc(r.readmissions)
				}
			}
		}
	}
}

// shedInfo is a 429 relayed from a shard.
type shedInfo struct {
	retryAfter time.Duration
	body       []byte
}

// legResult is one shard leg's outcome: exactly one of body, shed, or
// err is meaningful; contentType is the body's. traceID and replicaURL
// identify the answering replica's force-sampled trace (zero/empty when
// the request was untraced or the shard kept no trace), for
// post-response stitching.
type legResult struct {
	body        []byte
	contentType string
	shed        *shedInfo
	err         error
	traceID     uint64
	replicaURL  string
}

// injectTrace adds the cross-process propagation header to a fan-out
// leg. With no sampled router trace (hdr == "") it is a no-op that
// allocates nothing — the zero-alloc contract of the untraced path,
// asserted by TestCrossProcessUntracedZeroAlloc.
func injectTrace(req *http.Request, hdr string) {
	if hdr != "" {
		req.Header.Set(trace.HeaderTrace, hdr)
	}
}

// remoteTraceID reads the shard's trace-ID response header (0 when the
// leg was untraced; no parse work on the untraced path).
func remoteTraceID(resp *http.Response) uint64 {
	v := resp.Header.Get(trace.HeaderTraceID)
	if v == "" {
		return 0
	}
	id, _ := strconv.ParseUint(v, 10, 64)
	return id
}

// fetch runs one leg against shard s with replica failover: network
// errors, 5xx, and version skew try the next replica (recording the
// failure); a 2xx or 429 is a live replica's answer and heals it.
// traceHdr, when non-empty, is propagated so the shard force-samples
// the leg.
func (r *Router) fetch(ctx context.Context, s int, pathQuery, traceHdr string) legResult {
	var lastErr error
	for i, rep := range r.shards[s].candidates() {
		if i > 0 {
			inc(r.failovers)
		}
		legCtx, cancel := context.WithTimeout(ctx, r.timeout)
		req, err := http.NewRequestWithContext(legCtx, http.MethodGet, rep.url+pathQuery, nil)
		if err != nil {
			cancel()
			return legResult{err: err}
		}
		injectTrace(req, traceHdr)
		resp, err := r.client.Do(req)
		if err != nil {
			cancel()
			r.markFailed(rep)
			lastErr = err
			// The router's own request is dead: stop failing over.
			if ctx.Err() != nil {
				break
			}
			continue
		}
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if readErr != nil {
			r.markFailed(rep)
			lastErr = readErr
			continue
		}
		if v := resp.Header.Get("X-SNode-Shard-Version"); v != "" && v != r.manifest.Version {
			// Build/serve skew: this replica serves a different
			// partition; merging its rows would be silently wrong.
			inc(r.versionSkew)
			r.markFailed(rep)
			lastErr = fmt.Errorf("shard %d replica %s: manifest version %q, router has %q", s, rep.url, v, r.manifest.Version)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			r.markOK(rep)
			ra := time.Second
			if raw := resp.Header.Get("Retry-After"); raw != "" {
				if secs, err := strconv.ParseInt(raw, 10, 64); err == nil {
					ra = time.Duration(secs) * time.Second
				}
			}
			// Shed legs are traced too: admission rejections are exactly
			// the requests worth a distributed look.
			return legResult{
				shed:       &shedInfo{retryAfter: ra, body: body},
				traceID:    remoteTraceID(resp),
				replicaURL: rep.url,
			}
		case resp.StatusCode >= 500:
			r.markFailed(rep)
			lastErr = fmt.Errorf("shard %d replica %s: status %d", s, rep.url, resp.StatusCode)
			continue
		case resp.StatusCode != http.StatusOK:
			// 4xx other than 429: the request itself is bad; failing over
			// would return the same answer.
			r.markOK(rep)
			return legResult{err: fmt.Errorf("shard %d: status %d: %s", s, resp.StatusCode, body)}
		}
		r.markOK(rep)
		return legResult{body: body, contentType: resp.Header.Get("Content-Type"), traceID: remoteTraceID(resp), replicaURL: rep.url}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d: no replicas", s)
	}
	inc(r.fanoutErrors)
	return legResult{err: fmt.Errorf("shard %d: all replicas failed: %w", s, lastErr)}
}

// writeShed relays an aggregated 429 and counts it against the
// request's class as well as in router_shed.
func (r *Router) writeShed(w http.ResponseWriter, class string, sh *shedInfo) {
	inc(r.shedTotal)
	switch class {
	case "nav":
		inc(r.navShed)
	case "mining":
		inc(r.miningShed)
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64(math.Ceil(sh.retryAfter.Seconds())), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	w.Write(sh.body)
}

// stitchLeg fetches one leg's completed span subtree from the replica
// that answered it and attaches it to the router trace. Called after
// the router span tree is finished and before the response is written,
// so an exported router trace is always fully stitched. The fetch uses
// its own context: the stitch must survive the routed request's
// deadline (the data exists, the budget was for the answer).
func (r *Router) stitchLeg(root *trace.Trace, s int, leg legResult) {
	if root == nil || leg.traceID == 0 || leg.replicaURL == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	url := fmt.Sprintf("%s/debug/traces?id=%d", leg.replicaURL, leg.traceID)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		inc(r.stitchErrors)
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		inc(r.stitchErrors)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		inc(r.stitchErrors)
		return
	}
	var tj trace.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		inc(r.stitchErrors)
		return
	}
	root.AttachRemote(trace.Remote{
		Label:    fmt.Sprintf("shard%d %s", s, leg.replicaURL),
		TraceID:  tj.ID,
		Start:    tj.Start,
		Root:     tj.Root,
		Counters: tj.Counters,
	})
	inc(r.stitched)
}

// passthroughQuery forwards the client's deadline to the shard legs.
func passthroughQuery(req *http.Request, base string) string {
	if d := req.URL.Query().Get("deadline_ms"); d != "" {
		return base + "&deadline_ms=" + d
	}
	return base
}

// startTraced begins a routed request's observation: the sampled
// router trace (when the tracer's rotation picks this request), the
// propagation header value for its fan-out legs, and a done func that
// freezes the end-to-end duration and finishes the trace. done is
// idempotent; callers invoke it explicitly before writing the response
// (so the exported trace never shows an open root and stitching
// happens post-finish, pre-write) and rely on the deferred call only
// as a backstop on early returns.
func (r *Router) startTraced(w http.ResponseWriter, req *http.Request, class string) (ctx context.Context, root *trace.Trace, hdr string, done func() time.Duration) {
	start := time.Now()
	ctx = req.Context()
	var tr *trace.Trace
	if r.tracer != nil {
		ctx, tr = r.tracer.StartRequest(ctx, class)
	}
	root = tr
	if root != nil {
		hdr = trace.FormatHeader(root.ID, true)
		// Name the stitched trace in the response so a slow request is
		// one header read away from its distributed breakdown.
		w.Header().Set(trace.HeaderTraceID, strconv.FormatUint(root.ID, 10))
	}
	var dur time.Duration
	done = func() time.Duration {
		if dur == 0 {
			dur = time.Since(start)
		}
		if tr != nil {
			r.tracer.Finish(tr)
			tr = nil
		}
		return dur
	}
	return ctx, root, hdr, done
}

// observe records one finished request into the class latency
// histogram, carrying the stitched trace's ID as the exemplar so a
// p99 outlier bucket names a fetchable distributed trace.
func observe(h *metrics.Histogram, dur time.Duration, root *trace.Trace) {
	if h == nil {
		return
	}
	var ex uint64
	if root != nil {
		ex = root.ID
	}
	h.ObserveExemplar(int64(dur), ex)
}

// handleOut routes the navigation class: one shard leg plus the
// router-resident boundary overlay.
func (r *Router) handleOut(w http.ResponseWriter, req *http.Request) {
	raw := req.URL.Query().Get("page")
	page, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || page < 0 {
		http.Error(w, fmt.Sprintf("bad page %q", raw), http.StatusBadRequest)
		return
	}
	s := r.manifest.ShardOf(webgraph.PageID(page))
	if s < 0 {
		http.Error(w, fmt.Sprintf("page %d not in corpus (%d pages)", page, r.manifest.NumPages), http.StatusNotFound)
		return
	}
	inc(r.navRequests)
	ctx, root, hdr, done := r.startTraced(w, req, "router.nav")
	defer func() { observe(r.navLatency, done(), root) }()

	fanCtx, sp := trace.Start(ctx, "router.fanout")
	leg := r.fetch(fanCtx, s, passthroughQuery(req, fmt.Sprintf("/out?page=%d", page)), hdr)
	sp.End()
	switch {
	case leg.shed != nil:
		done()
		r.stitchLeg(root, s, leg)
		r.writeShed(w, "nav", leg.shed)
		return
	case leg.err != nil:
		inc(r.navErrors)
		done()
		http.Error(w, leg.err.Error(), http.StatusServiceUnavailable)
		return
	}
	var out serve.OutResponse
	if err := json.Unmarshal(leg.body, &out); err != nil {
		inc(r.navErrors)
		done()
		http.Error(w, fmt.Sprintf("shard %d: bad /out body: %v", s, err), http.StatusBadGateway)
		return
	}
	_, msp := trace.Start(ctx, "router.merge")
	out.Neighbors = append(out.Neighbors, r.boundaries[s].Out(webgraph.PageID(page))...)
	sort.Slice(out.Neighbors, func(i, j int) bool { return out.Neighbors[i] < out.Neighbors[j] })
	msp.End()
	if out.Neighbors == nil {
		out.Neighbors = []webgraph.PageID{}
	}
	done()
	r.stitchLeg(root, s, leg)
	writeJSON(w, out)
}

// writeJSON writes a routed response body.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleQuery routes the mining class: scatter ?partial=1 to every
// shard, gather, merge.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	raw := req.URL.Query().Get("q")
	qn, err := strconv.Atoi(raw)
	if err != nil || qn < int(query.Q1) || qn > int(query.Q6) {
		http.Error(w, fmt.Sprintf("bad q %q (want 1..6)", raw), http.StatusBadRequest)
		return
	}
	// The scatter, the legs' goroutines and the merge run under a pprof
	// label, so the router's CPU profile splits by query class like the
	// shards' (serve.handleQuery labels the other end of each leg).
	pprof.Do(req.Context(), pprof.Labels("query", query.ID(qn).Class()), func(ctx context.Context) {
		r.scatterQuery(w, req.WithContext(ctx), qn)
	})
}

// scatterQuery fans query qn out to one replica of every shard as a
// partial request and merges the partial rows.
func (r *Router) scatterQuery(w http.ResponseWriter, req *http.Request, qn int) {
	inc(r.miningRequests)
	ctx, root, hdr, done := r.startTraced(w, req, "router.mining")
	defer func() { observe(r.miningLatency, done(), root) }()

	k := r.manifest.NumShards
	legs := make([]legResult, k)
	fanCtx, sp := trace.Start(ctx, "router.fanout")
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			legs[s] = r.fetch(fanCtx, s, passthroughQuery(req, fmt.Sprintf("/query?q=%d&partial=1", qn)), hdr)
		}(s)
	}
	wg.Wait()
	sp.End()
	stitchAll := func() {
		for s, leg := range legs {
			r.stitchLeg(root, s, leg)
		}
	}

	// One shed leg sheds the whole request: a partial merge would be
	// silently wrong. Retry-After aggregates as the max, so the client
	// backs off enough for the slowest shard.
	var shed *shedInfo
	for _, leg := range legs {
		if leg.shed != nil && (shed == nil || leg.shed.retryAfter > shed.retryAfter) {
			shed = leg.shed
		}
	}
	if shed != nil {
		done()
		stitchAll()
		r.writeShed(w, "mining", shed)
		return
	}
	for s, leg := range legs {
		if leg.err != nil {
			inc(r.miningErrors)
			done()
			stitchAll()
			http.Error(w, fmt.Sprintf("shard %d unavailable: %v", s, leg.err), http.StatusServiceUnavailable)
			return
		}
	}
	parts := make([][]query.PartialRow, k)
	navMS := 0.0
	for s, leg := range legs {
		pr, err := decodeLeg(leg, qn, s)
		if err != nil {
			inc(r.miningErrors)
			done()
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		parts[s] = pr.Partials
		// The scatter runs the legs concurrently, so the merged query's
		// navigation cost is the slowest leg, not the sum.
		if pr.NavMS > navMS {
			navMS = pr.NavMS
		}
	}
	_, msp := trace.Start(ctx, "router.merge")
	rows := query.MergePartials(query.ID(qn), parts)
	msp.End()
	if rows == nil {
		rows = []query.Row{}
	}
	done()
	stitchAll()
	writeJSON(w, serve.QueryResponse{Query: qn, Rows: rows, NavMS: navMS})
}

// decodeLeg reads shard s's answer to the partial leg of query qn: a
// partial frame for that query and shard, or an error naming what came
// instead — a body under another content type (an old replica answering
// JSON, say) is refused unread, never misparsed.
func decodeLeg(leg legResult, qn, s int) (serve.PartialQueryResponse, error) {
	if leg.contentType != serve.PartialContentType {
		return serve.PartialQueryResponse{}, fmt.Errorf("shard %d: partial leg answered %q, want %s", s, leg.contentType, serve.PartialContentType)
	}
	pr, err := serve.DecodePartial(leg.body)
	if err == nil && (pr.Query != qn || pr.Shard != s) {
		err = fmt.Errorf("the frame is Q%d from shard %d", pr.Query, pr.Shard)
	}
	if err != nil {
		return serve.PartialQueryResponse{}, fmt.Errorf("shard %d: bad partial leg: %w", s, err)
	}
	return pr, nil
}
