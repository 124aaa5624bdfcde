package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/webgraph"
)

// Load generation: one process, the servers in it on loopback
// listeners, each closed-loop client a goroutine with one keep-alive
// connection (the shape internal/bench's load and shard experiments
// use). A closed loop sends a client's next request when the previous
// one completes. live_mix's writer is the one scheduled generator: it
// applies its batches at their due times whatever the server does, and
// times each from when it was due.

// inFlight is how many closed-loop clients drive a workload whose
// request occupies threads handler threads at a time. The clients and
// the servers share the host's cores: a window keeps about as many
// threads busy as there are cores, so that none of them sleeps between
// requests (a lone /out client and its handler take turns, and each
// turn waits for the host to wake the other's thread) and none waits
// for a core either. Two /out clients fill two cores; one routed query
// already runs a leg on each of two shards. Over eight runs of each,
// taken in turn, ops_per_s@nav_hot ranged over a quarter of its median
// with one client and a sixth with two; six seeds spread
// ops_per_s@mining_routed by 6.4 % with two clients and 1.3 % with one.
func inFlight(p params, threads int) int {
	return max(1, p.clients/threads)
}

// client issues GETs against one base URL and reuses its read buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	rec  *recorder // nil in the untraced pass
}

// newClient makes a client with one keep-alive connection; a client
// serves one goroutine.
func newClient(base string, rec *recorder) *client {
	return &client{
		base: base,
		rec:  rec,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var nextRequestID atomic.Uint64

// get issues one GET and returns the status and the body. In the
// traced pass the request is a client.request span and names itself to
// the server in the span header. The body is valid until the next get.
func (c *client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	var sp span
	var start time.Time
	if c.rec != nil {
		sp = span{Name: spanClient, Req: nextRequestID.Add(1), ID: c.rec.newID()}
		req.Header.Set(spanHeader, formatSpanHeader(sp.Req, sp.ID))
		start = time.Now()
	}
	buf := &c.buf
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if c.rec != nil {
		sp.StartNs, sp.DurNs = c.rec.since(start), int64(time.Since(start))
		c.rec.add(sp)
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// parseOut reads a /out body, {"page":P,"neighbors":[a,b,...]}, into
// dst. It accepts exactly what serve and router write and nothing else:
// any other shape is a failed check, not a parse to be lenient about.
func parseOut(body []byte, dst []webgraph.PageID) (page webgraph.PageID, nbrs []webgraph.PageID, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"page":`))
	if !ok {
		return 0, nil, false
	}
	num := func() (int64, bool) {
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 0 || i > 10 {
			return 0, false
		}
		v, err := strconv.ParseInt(string(rest[:i]), 10, 32)
		rest = rest[i:]
		return v, err == nil
	}
	p, ok := num()
	if !ok {
		return 0, nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"neighbors":[`)); !ok {
		return 0, nil, false
	}
	nbrs = dst[:0]
	for len(rest) > 0 && rest[0] != ']' {
		if len(nbrs) > 0 {
			if rest[0] != ',' {
				return 0, nil, false
			}
			rest = rest[1:]
		}
		v, ok := num()
		if !ok {
			return 0, nil, false
		}
		nbrs = append(nbrs, webgraph.PageID(v))
	}
	if s := string(rest); s != "]}\n" && s != "]}" {
		return 0, nil, false
	}
	return webgraph.PageID(p), nbrs, true
}

// opStat is what one correct operation returned.
type opStat struct {
	bytes int // response body
	rows  int // neighbours or query rows in it
	class int // which of the workload's kinds of request it was (the query number on mining_routed)
}

// tally is the outcome of one window (or one client's share of it).
type tally struct {
	attempted int64
	failed    int64 // transport errors, non-200 (429 included), oracle mismatches, scheduled operations started over lateLimit late
	samples   []sample
	bodyBytes int64
	rows      int64
	late      []float64 // scheduled operations: how late each was started, µs
	firstErr  string
}

func (t *tally) ok() int64 { return t.attempted - t.failed }

func (t *tally) done(st opStat, at, lat time.Duration) {
	t.bodyBytes += int64(st.bytes)
	t.rows += int64(st.rows)
	t.samples = append(t.samples, sample{at: at, lat: lat, class: st.class})
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.samples = append(t.samples, o.samples...)
	t.bodyBytes += o.bodyBytes
	t.rows += o.rows
	t.late = append(t.late, o.late...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// op performs one request with c and checks the response against the
// oracle; it returns what came back and nil, or why the operation
// failed.
type op func(c *client) (opStat, error)

// checkOut is the /out operation: the body must be page p's CSR row,
// as a set (both sides ascending).
func checkOut(g *webgraph.Graph, scratch *[]webgraph.PageID, p webgraph.PageID) op {
	return func(c *client) (opStat, error) {
		status, body, err := c.get("/out?page=" + strconv.Itoa(int(p)))
		if err != nil {
			return opStat{}, err
		}
		if status != http.StatusOK {
			return opStat{}, fmt.Errorf("/out?page=%d: status %d", p, status)
		}
		page, nbrs, ok := parseOut(body, *scratch)
		*scratch = nbrs
		if !ok || page != p {
			return opStat{}, fmt.Errorf("/out?page=%d: unreadable body %.80q", p, body)
		}
		if g != nil && !slices.Equal(nbrs, g.Out(p)) {
			return opStat{}, fmt.Errorf("/out?page=%d: %d neighbours, oracle row has %d or differs", p, len(nbrs), g.OutDegree(p))
		}
		return opStat{bytes: len(body), rows: len(nbrs)}, nil
	}
}

// runClosed drives clients closed-loop clients against base for d.
// next(i) returns client i's stream of operations.
func runClosed(base string, rec *recorder, clients int, d time.Duration, next func(i int) func() op) *tally {
	parts := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(base, rec)
			defer c.close()
			t := &tally{}
			stream := next(i)
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					break
				}
				st, err := stream()(c)
				lat := time.Since(t0)
				t.attempted++
				if err != nil {
					t.fail("%v", err)
					continue
				}
				t.done(st, t0.Sub(start), lat)
			}
			parts[i] = t
		}(i)
	}
	wg.Wait()
	total := &tally{}
	for _, t := range parts {
		total.merge(t)
	}
	return total
}

// lateLimit is how late a scheduled generator (live_mix's writer) may
// start an operation before the operation counts as failed: past it the
// run no longer offers the stated rate.
const lateLimit = time.Second
