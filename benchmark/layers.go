package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"snode/internal/admission"
	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/pagerank"
	"snode/internal/query"
	"snode/internal/refenc"
	"snode/internal/repo"
	"snode/internal/serve"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/textindex"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Direct timed calls into single layers, made during the set-up of a
// traced run by the workload that leans on the layer. Each is repeated
// microRounds times and the median round is reported.

// sink keeps results the timed loops would otherwise let the compiler
// drop.
var sink int

const (
	microRounds = 3
	microBuffer = 1 << 20 // bytes of encoded input for the bitio and coding reads
	microRows   = 4096    // CSR rows for the list codecs and k-means
)

// timeRounds runs f microRounds times and returns the median wall time
// of a round divided by the units of work f reports.
func timeRounds(f func() (units int, err error)) (float64, error) {
	var per []float64
	for i := 0; i < microRounds; i++ {
		start := time.Now()
		n, err := f()
		if err != nil {
			return 0, err
		}
		if n > 0 {
			per = append(per, float64(time.Since(start))/float64(n))
		}
	}
	return median(per), nil
}

// firstRows returns the first microRows CSR rows of g as local lists.
func firstRows(g *webgraph.Graph) (rows [][]int32, edges int) {
	n := microRows
	if g.NumPages() < n {
		n = g.NumPages()
	}
	rows = make([][]int32, n)
	for i := range rows {
		rows[i] = g.Out(webgraph.PageID(i))
		edges += len(rows[i])
	}
	return rows, edges
}

// bitLayers times bitio and coding reads over a fixed encoded buffer
// and the two list decoders over the corpus's first rows.
func bitLayers(L map[string]float64, g *webgraph.Graph, seed uint64) error {
	rng := newRand(seed, "micro/bits")
	raw := make([]byte, microBuffer)
	rng.Read(raw)
	ns, err := timeRounds(func() (int, error) {
		r := bitio.NewByteReader(raw)
		n := 0
		for r.Remaining() >= 7 {
			if _, err := r.ReadBits(7); err != nil {
				return 0, err
			}
			n++
		}
		return n, nil
	})
	if err != nil {
		return fmt.Errorf("bitio.ReadBits: %w", err)
	}
	L["bitio.read_bits_ns"] = ns

	// Unary prefixes and gamma codes of the gap sizes a Web graph has:
	// mostly small, a few large.
	w := bitio.NewWriter(microBuffer)
	var vals int
	for w.BitLen() < microBuffer*8 {
		w.WriteUnary(uint64(rng.Intn(16)))
		vals++
	}
	unary, unaryBits := w.Bytes(), w.BitLen()
	if ns, err = timeRounds(func() (int, error) {
		r := bitio.NewReader(unary, unaryBits)
		for i := 0; i < vals; i++ {
			if _, err := r.ReadUnary(); err != nil {
				return 0, err
			}
		}
		return vals, nil
	}); err != nil {
		return fmt.Errorf("bitio.ReadUnary: %w", err)
	}
	L["bitio.read_unary_ns"] = ns

	w = bitio.NewWriter(microBuffer)
	vals = 0
	for w.BitLen() < microBuffer*8 {
		coding.WriteGamma(w, uint64(1+rng.Intn(1<<uint(rng.Intn(12)))))
		vals++
	}
	gammas, gammaBits := w.Bytes(), w.BitLen()
	if ns, err = timeRounds(func() (int, error) {
		r := bitio.NewReader(gammas, gammaBits)
		for i := 0; i < vals; i++ {
			if _, err := coding.ReadGamma(r); err != nil {
				return 0, err
			}
		}
		return vals, nil
	}); err != nil {
		return fmt.Errorf("coding.ReadGamma: %w", err)
	}
	L["coding.gamma_decode_ns"] = ns

	rows, edges := firstRows(g)
	bound := uint64(g.NumPages())
	w = bitio.NewWriter(edges * 2)
	for _, row := range rows {
		coding.WriteBoundedGapList(w, row, bound)
	}
	gaps, gapBits := w.Bytes(), w.BitLen()
	var dst []int32
	if ns, err = timeRounds(func() (int, error) {
		r := bitio.NewReader(gaps, gapBits)
		for _, row := range rows {
			var err error
			if dst, err = coding.ReadBoundedGapList(r, len(row), bound, dst[:0]); err != nil {
				return 0, err
			}
		}
		return edges, nil
	}); err != nil {
		return fmt.Errorf("coding.ReadBoundedGapList: %w", err)
	}
	L["coding.gaplist_decode_ns_per_edge"] = ns

	enc, encBits, err := refencEncode(L, rows, edges, bound)
	if err != nil {
		return err
	}
	if ns, err = timeRounds(func() (int, error) {
		_, err := refenc.DecodeListsBounded(bitio.NewReader(enc, encBits), len(rows), bound)
		return edges, err
	}); err != nil {
		return fmt.Errorf("refenc.DecodeListsBounded: %w", err)
	}
	L["refenc.decode_ns_per_edge"] = ns
	return nil
}

// refencEncode times EncodeLists over rows and returns the stream.
func refencEncode(L map[string]float64, rows [][]int32, edges int, bound uint64) ([]byte, int, error) {
	opt := refenc.Options{Window: refenc.DefaultWindow, TargetBound: bound}
	var w *bitio.Writer
	ns, err := timeRounds(func() (int, error) {
		w = bitio.NewWriter(edges * 2)
		_, err := refenc.EncodeLists(w, rows, opt)
		return edges, err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("refenc.EncodeLists: %w", err)
	}
	L["refenc.encode_ns_per_edge"] = ns
	return w.Bytes(), w.BitLen(), nil
}

// codecLayers reports decode cost and density per payload kind.
func codecLayers(L map[string]float64, rep *snode.Representation) error {
	costs, err := rep.MeasureDecode(microRounds)
	if err != nil {
		return fmt.Errorf("snode.MeasureDecode: %w", err)
	}
	type agg struct{ ns, bytes, edges int64 }
	byKind := map[string]*agg{}
	for _, c := range costs {
		a := byKind[c.Kind]
		if a == nil {
			a = &agg{}
			byKind[c.Kind] = a
		}
		a.ns += c.Ns
		a.bytes += c.Bytes
		a.edges += c.Edges
	}
	for kind, a := range byKind {
		if a.edges > 0 {
			L["snode.decode_ns_per_edge."+kind] = float64(a.ns) / float64(a.edges)
			L["snode.payload_bits_per_edge."+kind] = float64(a.bytes*8) / float64(a.edges)
		}
	}
	return nil
}

// timeOut times direct Out calls on a store over n pages of a stream,
// in nanoseconds per call.
func timeOut(s store.LinkStore, ps *pageStream, n int) (float64, error) {
	pages := make([]webgraph.PageID, n)
	for i := range pages {
		pages[i] = ps.next()
	}
	var buf []webgraph.PageID
	return timeRounds(func() (int, error) {
		for _, p := range pages {
			var err error
			if buf, err = s.Out(p, buf[:0]); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
}

// navLayers makes the direct timed calls of nav_hot (the serve path
// and the warm reader) or nav_cold (the decode path and the cold
// reader).
func navLayers(res *runResult, p params, st *navStack, crawl *synth.Crawl, hot bool) error {
	L := res.PerLayer
	g := crawl.Corpus.Graph
	ms, err := timeRounds(func() (int, error) {
		r, err := snode.Open(filepath.Join(st.dir, repo.SchemeSNode+".fwd"), coldCacheBytes, diskModel())
		if err != nil {
			return 0, err
		}
		return 1, r.Close()
	})
	if err != nil {
		return fmt.Errorf("snode.Open: %w", err)
	}
	L["snode.open_ms"] = ms / 1e6

	if !hot {
		if err := bitLayers(L, g, p.seed); err != nil {
			return err
		}
		if err := codecLayers(L, st.fwd); err != nil {
			return err
		}
		pages := make([]webgraph.PageID, 2000)
		ps := newPageStream(p.seed, "micro/cold", g.NumPages(), false)
		for i := range pages {
			pages[i] = ps.next()
		}
		var buf []webgraph.PageID
		ns, err := timeRounds(func() (int, error) {
			st.fwd.ResetCache(st.budget)
			for _, pg := range pages {
				var err error
				if buf, err = st.fwd.Out(pg, buf[:0]); err != nil {
					return 0, err
				}
			}
			return len(pages), nil
		})
		if err != nil {
			return fmt.Errorf("cold Out: %w", err)
		}
		L["snode.out_cold_us"] = ns / 1e3
		return nil
	}

	const calls = 20000
	ns, err := timeOut(st.fwd, newPageStream(p.seed, "micro/warm", g.NumPages(), true), calls)
	if err != nil {
		return fmt.Errorf("warm Out: %w", err)
	}
	L["snode.out_warm_ns"] = ns

	eng, err := query.New(st.repo, repo.SchemeSNode)
	if err != nil {
		return err
	}
	eng = eng.Shared()
	ps := newPageStream(p.seed, "micro/neighbors", g.NumPages(), true)
	pages := make([]webgraph.PageID, calls)
	for i := range pages {
		pages[i] = ps.next()
	}
	ctx := context.Background()
	if ns, err = timeRounds(func() (int, error) {
		for _, pg := range pages {
			if _, _, err := eng.Neighbors(ctx, pg); err != nil {
				return 0, err
			}
		}
		return calls, nil
	}); err != nil {
		return fmt.Errorf("Engine.Neighbors: %w", err)
	}
	L["query.neighbors_us"] = ns / 1e3

	handler := st.srv.Handler()
	reqs := make([]*http.Request, calls)
	for i, pg := range pages {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/out?page="+strconv.Itoa(int(pg)), nil)
	}
	if ns, err = timeRounds(func() (int, error) {
		for _, req := range reqs {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return 0, fmt.Errorf("%s: status %d", req.URL, w.Code)
			}
		}
		return calls, nil
	}); err != nil {
		return fmt.Errorf("/out handler: %w", err)
	}
	L["serve.out_handler_us"] = ns / 1e3

	ctrl, err := admission.New(admission.Config{
		MaxConcurrent: serveMaxConcurrent,
		Classes:       []admission.ClassConfig{{Name: serve.ClassNav, MaxQueue: serveMaxQueue}},
	})
	if err != nil {
		return err
	}
	if ns, err = timeRounds(func() (int, error) {
		for i := 0; i < 10*calls; i++ {
			release, err := ctrl.Acquire(ctx, serve.ClassNav)
			if err != nil {
				return 0, err
			}
			release()
		}
		return 10 * calls, nil
	}); err != nil {
		return fmt.Errorf("admission.Acquire: %w", err)
	}
	L["admission.acquire_ns"] = ns

	start := time.Now()
	textindex.Build(crawl.Corpus.Pages)
	pagerank.Normalize(pagerank.Compute(g, pagerank.DefaultConfig()))
	store.NewDomainRanges(crawl.Corpus.Pages)
	L["repo.index_build_s"] = time.Since(start).Seconds()
	return nil
}

// programTracerOverhead measures what the program's own tracer costs
// when it samples every request, against the untraced reference rate,
// and how much of a request's wall its spans account for.
func programTracerOverhead(res *runResult, p params, st *navStack, g *webgraph.Graph, refOps float64) error {
	tracer := trace.New(trace.Config{SampleEvery: 1, Recent: 1024})
	eng, err := query.New(st.repo, repo.SchemeSNode)
	if err != nil {
		return err
	}
	eng.SetTracer(tracer)
	srv, err := serve.New(serve.Config{Engine: eng, MaxConcurrent: serveMaxConcurrent, MaxQueue: serveMaxQueue, Tracer: tracer})
	if err != nil {
		return err
	}
	l, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer l.close()
	d := p.window / 3
	t := runClosed(l.url, nil, p.clients, d, outStream(p, g, "program-tracer", true))
	res.count(t)
	if refOps > 0 {
		res.PerLayer["trace.overhead_ratio"] = float64(t.ok()) / d.Seconds() / refOps
	}
	var traced, wall time.Duration
	traces := tracer.Traces()
	for _, tr := range traces {
		traced += tr.Total()
	}
	for _, s := range t.samples {
		wall += s.lat
	}
	if len(traces) > 0 && len(t.samples) > 0 && wall > 0 {
		perTrace := float64(traced) / float64(len(traces))
		perRequest := float64(wall) / float64(len(t.samples))
		res.PerLayer["trace.span_coverage"] = perTrace / perRequest
	}
	return nil
}
