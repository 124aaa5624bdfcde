package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced pass records the benchmark's own spans, from its own
// wrappers around the calls into each layer:
//
//	client.request → router.handler → serve.handler → store.out
//
// A span has a name, a start, a duration, the span that caused it and
// the identifier of the request all of them belong to. They are kept in
// memory and written out when the run ends. store.out is one span per
// handler, the sum of that handler's store calls with their count: a
// mining query makes thousands of them, and a span for each would cost
// more than the calls.

// Span names, by layer.
const (
	spanClient = "client.request"
	spanRouter = "router.handler"
	spanServe  = "serve.handler"
	spanStore  = "store.out"
	spanPhase  = "build.phase" // build_scale: ingest / refine / encode / open
)

// span is one recorded interval.
type span struct {
	Name    string `json:"name"`
	Req     uint64 `json:"req"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"` // 0: caused by nothing the benchmark wraps
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Calls   int64  `json:"calls,omitempty"` // store.out: calls summed into the span
	Label   string `json:"label,omitempty"` // build.phase: which phase
}

// recorder collects spans. A nil *recorder records nothing, which is
// how the untraced pass runs the same code.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint32
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() uint32 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// reset drops everything recorded so far (the warm-up's spans).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanHeader carries "<request id>:<parent span id>" from a caller to
// the next wrapped handler.
const spanHeader = "X-Bench-Span"

func formatSpanHeader(req uint64, parent uint32) string {
	return strconv.FormatUint(req, 10) + ":" + strconv.FormatUint(uint64(parent), 10)
}

func parseSpanHeader(v string) (req uint64, parent uint32, ok bool) {
	a, b, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.ParseUint(b, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return req, uint32(p), true
}

// spanScope is what a wrapped handler puts in its request's context:
// who it is, for the outgoing calls it causes, and where its store
// calls add their time.
type spanScope struct {
	req      uint64
	id       uint32
	outNs    atomic.Int64
	outCalls atomic.Int64
}

type spanScopeKey struct{}

func scopeFrom(ctx context.Context) *spanScope {
	sc, _ := ctx.Value(spanScopeKey{}).(*spanScope)
	return sc
}

// traceHandler wraps an http.Handler of the program (router.Handler()
// or serve.Handler()) so that each request it serves becomes a span
// named name, child of the span named in the request's header.
func (r *recorder) traceHandler(name string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reqID, parent, _ := parseSpanHeader(req.Header.Get(spanHeader))
		sc := &spanScope{req: reqID, id: r.newID()}
		start := time.Now()
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanScopeKey{}, sc)))
		dur := time.Since(start)
		r.add(span{Name: name, Req: reqID, ID: sc.id, Parent: parent, StartNs: r.since(start), DurNs: int64(dur)})
		if calls := sc.outCalls.Load(); calls > 0 {
			r.add(span{Name: spanStore, Req: reqID, ID: r.newID(), Parent: sc.id,
				StartNs: r.since(start), DurNs: sc.outNs.Load(), Calls: calls})
		}
	})
}

// legTransport is the http.RoundTripper handed to the router for its
// fan-out: the router derives each leg's context from the request it is
// serving, so the scope set by traceHandler is there to name as parent.
type legTransport struct{ next http.RoundTripper }

func (t legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sc := scopeFrom(req.Context()); sc != nil {
		req.Header.Set(spanHeader, formatSpanHeader(sc.req, sc.id))
	}
	return t.next.RoundTrip(req)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[uint32]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[uint32][]iv{}
	byID := map[uint32]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartNs, s.StartNs+s.DurNs
		if lo < p.StartNs {
			lo = p.StartNs
		}
		if end := p.StartNs + p.DurNs; hi > end {
			hi = end
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].lo < ks[j].lo })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			if k.lo < edge {
				k.lo = edge
			}
			if k.hi > k.lo {
				covered += k.hi - k.lo
				edge = k.hi
			}
		}
		self[s.ID] = s.DurNs - covered
	}
	return self
}

// spanSummary is what the traced pass reports from the spans of one
// window.
type spanSummary struct {
	requests   int
	wallP50Us  float64            // median client.request duration
	selfP50Us  map[string]float64 // median over requests of the summed self time per span name
	coverage   float64            // Σ self of the handler and store spans ÷ Σ client.request durations
	linked     float64            // share of the requests whose serve.handler span was recorded under their client.request
	legsPerReq float64            // serve.handler spans under a router.handler, per routed request
}

// summarize folds a window's spans into per-layer self times.
func summarize(spans []span) spanSummary {
	self := selfTimes(spans)
	type acc struct {
		wall   int64
		byName map[string]int64
	}
	reqs := map[uint64]*acc{}
	var legs, routed int
	for _, s := range spans {
		a := reqs[s.Req]
		if a == nil {
			a = &acc{byName: map[string]int64{}}
			reqs[s.Req] = a
		}
		a.byName[s.Name] += self[s.ID]
		switch s.Name {
		case spanClient:
			a.wall = s.DurNs
		case spanRouter:
			routed++
		case spanServe:
			if s.Parent != 0 {
				legs++
			}
		}
	}
	sum := spanSummary{selfP50Us: map[string]float64{}}
	var walls []float64
	perName := map[string][]float64{}
	var inside, wallTotal int64
	var linked int
	for _, a := range reqs {
		if a.wall == 0 {
			continue // a handler span whose client span fell outside the window
		}
		sum.requests++
		walls = append(walls, float64(a.wall)/1e3)
		wallTotal += a.wall
		if _, ok := a.byName[spanServe]; ok {
			linked++
		}
		for name, ns := range a.byName {
			perName[name] = append(perName[name], float64(ns)/1e3)
			if name != spanClient {
				inside += ns
			}
		}
	}
	sum.wallP50Us = median(walls)
	for name, vs := range perName {
		sum.selfP50Us[name] = median(vs)
	}
	if wallTotal > 0 {
		sum.coverage = float64(inside) / float64(wallTotal)
		sum.linked = float64(linked) / float64(sum.requests)
	}
	if routed > 0 {
		sum.legsPerReq = float64(legs) / float64(routed)
	}
	return sum
}

// traceFileRequests bounds the trace file: a hot window holds hundreds
// of thousands of requests, and the first few thousand show the shape.
const traceFileRequests = 2000

// writeTrace writes the spans of the first traceFileRequests requests.
func writeTrace(path string, spans []span) error {
	keep := map[uint64]bool{}
	var out []span
	for _, s := range spans {
		if !keep[s.Req] {
			if len(keep) >= traceFileRequests {
				continue
			}
			keep[s.Req] = true
		}
		out = append(out, s)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
