// External-memory edge ingestion: a bounded in-memory buffer of raw
// (src, dst) pairs, fed in file order by the parse pipeline (parse.go),
// spills to disk as sorted, deduplicated, delta-coded runs; a k-way
// merge replays the runs as one globally sorted edge stream that is
// translated through the compacted ID table straight into CSR arrays.
// The table is ascending and, in every dataset seen so far, dense or
// nearly so, so a raw ID is looked up where interpolation says it
// should be and found within a probe or two (lookupDense). Peak memory
// is O(budget) for ingestion state, never O(edges).
package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"snode/internal/coding"
	"snode/internal/metrics"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// rawEdge is one parsed edge before compaction.
type rawEdge struct{ s, d uint64 }

// edgeBytes is the in-memory footprint charged per buffered edge: the
// pair itself (pairBytes) plus headroom for the blocks the parse
// pipeline has in flight and for the sort and merge, so MaxHeapMB
// honestly bounds the working set rather than just the array.
const (
	edgeBytes = 24
	pairBytes = 16
)

// minBudgetEdges keeps degenerate budgets usable (and the run count
// bounded) instead of spilling every few lines.
const minBudgetEdges = 4096

// spiller accumulates edges, spilling sorted runs past the budget.
type spiller struct {
	opt Options
	// table is the compaction table, raw ID per dense ID, ascending: the
	// distinct endpoints of every run flushed so far — unless a URL table
	// declares the node set (declared), in which case finalize is handed
	// it. At 8 B a node it is the ingest's own output, so it is kept in
	// memory, not spilled.
	table    []uint64
	declared bool

	buf    []rawEdge
	budget int // max buffered edges; 0 = unbounded

	dir    string
	ownDir bool
	runs   []runInfo

	mRuns      *metrics.Counter
	mBytes     *metrics.Counter
	mLiveBytes *metrics.Gauge
}

// runInfo locates one spilled run.
type runInfo struct {
	path   string
	nEdges int64
	bytes  int64
}

// newSpiller starts an ingest whose nodes are whatever the edges name
// or, with declared set, the universe finalize will be given.
func newSpiller(opt Options, declared bool) *spiller {
	sp := &spiller{opt: opt, declared: declared}
	if opt.MaxHeapMB > 0 {
		sp.budget = opt.MaxHeapMB << 20 / edgeBytes
		if sp.budget < minBudgetEdges {
			sp.budget = minBudgetEdges
		}
		sp.buf = make([]rawEdge, 0, sp.budget)
	}
	if opt.Metrics != nil {
		sp.mRuns = opt.Metrics.Counter("ingest_runs_spilled")
		sp.mBytes = opt.Metrics.Counter("ingest_spill_bytes")
		sp.mLiveBytes = opt.Metrics.Gauge("ingest_spill_live_bytes")
	}
	return sp
}

// blockBytes sizes the parse pipeline's blocks so that window of them
// in flight fit in the headroom the budget charges beyond the pairs
// themselves; the run boundaries stay where the budget alone puts them.
func (sp *spiller) blockBytes(window int) int {
	if sp.budget == 0 {
		return maxBlockBytes
	}
	return min(max(sp.budget*(edgeBytes-pairBytes)/(blockCharge*window), minBlockBytes), maxBlockBytes)
}

// add buffers one edge, spilling a sorted run when the buffer reaches
// the heap budget.
func (sp *spiller) add(ctx context.Context, s, d uint64, st *Stats) error {
	sp.buf = append(sp.buf, rawEdge{s, d})
	if sp.budget > 0 && len(sp.buf) >= sp.budget {
		return sp.flushRun(ctx, st)
	}
	return nil
}

// ensureDir lazily creates the spill directory on first flush.
func (sp *spiller) ensureDir() error {
	if sp.dir != "" {
		return nil
	}
	if sp.opt.SpillDir != "" {
		if err := os.MkdirAll(sp.opt.SpillDir, 0o755); err != nil {
			return fmt.Errorf("ingest: spill dir: %w", err)
		}
		sp.dir = sp.opt.SpillDir
		return nil
	}
	dir, err := os.MkdirTemp("", "snode-ingest-*")
	if err != nil {
		return fmt.Errorf("ingest: spill dir: %w", err)
	}
	sp.dir = dir
	sp.ownDir = true
	return nil
}

// cleanup removes whatever runs are still on disk (the merge deletes
// consumed runs itself; this covers error paths).
func (sp *spiller) cleanup() {
	for _, r := range sp.runs {
		os.Remove(r.path)
	}
	if sp.ownDir && sp.dir != "" {
		os.RemoveAll(sp.dir)
	}
	if sp.mLiveBytes != nil {
		sp.mLiveBytes.Set(0)
	}
}

// sortDedup sorts edges by (s, d) and removes duplicates in place,
// returning the compacted slice and the number of duplicates dropped.
func sortDedup(buf []rawEdge) ([]rawEdge, int64) {
	slices.SortFunc(buf, func(a, b rawEdge) int {
		if a.s != b.s {
			return cmp.Compare(a.s, b.s)
		}
		return cmp.Compare(a.d, b.d)
	})
	out := slices.Compact(buf)
	return out, int64(len(buf) - len(out))
}

// flushRun writes the buffered edges as one sorted run and, unless the
// node universe is already known, merges their endpoints into the table.
func (sp *spiller) flushRun(ctx context.Context, st *Stats) error {
	if len(sp.buf) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, span := trace.Start(ctx, "ingest.spill")
	defer span.End()
	if err := sp.ensureDir(); err != nil {
		return err
	}
	edges, dups := sortDedup(sp.buf)
	st.DupEdges += dups

	ri := runInfo{
		path:   filepath.Join(sp.dir, fmt.Sprintf("run-%04d.edges", len(sp.runs))),
		nEdges: int64(len(edges)),
	}
	var err error
	if ri.bytes, err = writeEdgeRun(ri.path, edges); err != nil {
		return err
	}
	if !sp.declared {
		sp.table = unionSorted(sp.table, endpoints(edges))
	}
	sp.runs = append(sp.runs, ri)
	st.Runs++
	st.SpillBytes += ri.bytes
	if sp.opt.IO != nil {
		sp.opt.IO.Spill(ctx, ri.bytes)
	}
	if sp.mRuns != nil {
		sp.mRuns.Inc()
		sp.mBytes.Add(ri.bytes)
		sp.mLiveBytes.Add(ri.bytes)
	}
	span.SetAttr("edges", ri.nEdges)
	span.SetAttr("bytes", ri.bytes)
	sp.buf = sp.buf[:0]
	return nil
}

// endpoints returns the sorted distinct node IDs the edges name.
func endpoints(edges []rawEdge) []uint64 {
	v := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		v = append(v, e.s, e.d)
	}
	slices.Sort(v)
	return slices.Compact(v)
}

// unionSorted merges two sorted duplicate-free slices into a new one.
func unionSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// finalize turns everything the spiller holds into CSR arrays plus the
// compaction table, which is universe (sorted raw IDs) when the node set
// was declared. An edge naming an ID outside a declared universe is an
// error.
func (sp *spiller) finalize(ctx context.Context, st *Stats, universe []uint64) (offsets []int64, targets []webgraph.PageID, table []uint64, err error) {
	if sp.declared {
		sp.table = universe
	}
	if len(sp.runs) == 0 {
		// In-memory path: one "run" that never touched disk.
		edges, dups := sortDedup(sp.buf)
		st.DupEdges += dups
		if !sp.declared {
			sp.table = endpoints(edges)
		}
		offsets, targets, err = buildCSR(ctx, &sliceStream{edges: edges}, sp.table, int64(len(edges)))
		if err != nil {
			return nil, nil, nil, err
		}
		return offsets, targets, sp.table, nil
	}

	// Flush the tail so the merge sees every edge, and release the
	// buffer: the merge phase must not retain the budget's worth of
	// capacity on top of its own cursors.
	if err := sp.flushRun(ctx, st); err != nil {
		return nil, nil, nil, err
	}
	sp.buf = nil
	_, span := trace.Start(ctx, "ingest.merge")
	defer span.End()
	span.SetAttr("runs", int64(len(sp.runs)))

	ms, maxEdges, err := sp.openEdgeMerge(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	defer ms.close()
	offsets, targets, err = buildCSR(ctx, ms, sp.table, maxEdges)
	if err != nil {
		return nil, nil, nil, err
	}
	st.DupEdges += ms.dups
	return offsets, targets, sp.table, nil
}

// --- run file encoding ------------------------------------------------

// An edge run is a uvarint count, then the sorted pairs delta-coded as
// uvarints: per edge, ds = s - prevS; ds > 0 resets the dst base
// (absolute dst follows), ds == 0 continues the source's list (dst delta
// follows). writeEdgeRun returns the bytes it wrote.
func writeEdgeRun(path string, edges []rawEdge) (n int64, err error) {
	err = coding.WriteFile(path, func(w *coding.Writer) error {
		w.Uvarint(uint64(len(edges)))
		var prevS, prevD uint64
		for _, e := range edges {
			ds := e.s - prevS
			w.Uvarint(ds)
			if ds > 0 {
				w.Uvarint(e.d)
			} else {
				w.Uvarint(e.d - prevD)
			}
			prevS, prevD = e.s, e.d
		}
		n = w.Offset()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: spill: %w", err)
	}
	return n, nil
}

// errEdgeRunOrder refuses an edge of a run that does not follow the edge
// before it in strictly ascending (src, dst) order, or whose gap wraps
// past 2^64: the merge reads every run as ascending.
var errEdgeRunOrder = errors.New("edge out of order")

// edgeCursor streams one edge run.
type edgeCursor struct {
	path  string
	r     *coding.Reader
	left  int64
	prevS uint64
	prevD uint64
	cur   rawEdge
	ok    bool
}

func openEdgeRun(path string, n int64) (*edgeCursor, error) {
	r, err := coding.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: spill: %w", err)
	}
	c := &edgeCursor{path: path, r: r, left: n}
	if cnt := r.Uvarint(); r.Err() != nil || int64(cnt) != n {
		r.Close()
		return nil, fmt.Errorf("ingest: spill: edge run %s corrupt", path)
	}
	if err := c.advance(); err != nil {
		r.Close()
		return nil, err
	}
	return c, nil
}

func (c *edgeCursor) advance() error {
	if c.left == 0 {
		c.ok = false
		return nil
	}
	ds, d := c.r.Uvarint(), c.r.Uvarint()
	if err := c.r.Err(); err != nil {
		return fmt.Errorf("ingest: spill: edge run %s: %w", c.path, err)
	}
	// The first edge follows (0, 0) and may be it; every later one
	// moves strictly forward without wrapping.
	switch s, t := c.prevS+ds, c.prevD+d; {
	case ds > 0 && s > c.prevS:
		c.prevS, c.prevD = s, d
	case ds == 0 && (!c.ok || t > c.prevD):
		c.prevD = t
	default:
		return fmt.Errorf("ingest: spill: edge run %s: gaps (%d, %d) after edge (%d, %d): %w", c.path, ds, d, c.prevS, c.prevD, errEdgeRunOrder)
	}
	c.cur = rawEdge{c.prevS, c.prevD}
	c.left--
	c.ok = true
	return nil
}

func (c *edgeCursor) close() {
	c.r.Close()
	os.Remove(c.path)
}

// --- merged edge stream ----------------------------------------------

// edgeStream yields (src, dst) pairs in ascending (src, dst) order
// with no duplicates.
type edgeStream interface {
	next() (rawEdge, bool, error)
}

// sliceStream adapts the in-memory sorted buffer.
type sliceStream struct {
	edges []rawEdge
	i     int
}

func (s *sliceStream) next() (rawEdge, bool, error) {
	if s.i >= len(s.edges) {
		return rawEdge{}, false, nil
	}
	e := s.edges[s.i]
	s.i++
	return e, true, nil
}

// mergeStream k-way merges edge runs, deduplicating across runs. The
// run count is small (total edges / budget), so a linear min scan per
// pop beats heap bookkeeping.
type mergeStream struct {
	curs []*edgeCursor
	last rawEdge
	any  bool
	dups int64
}

func (sp *spiller) openEdgeMerge(ctx context.Context) (*mergeStream, int64, error) {
	ms := &mergeStream{}
	var total int64
	for _, r := range sp.runs {
		c, err := openEdgeRun(r.path, r.nEdges)
		if err != nil {
			ms.close()
			return nil, 0, err
		}
		if sp.opt.IO != nil {
			sp.opt.IO.Spill(ctx, r.bytes)
		}
		ms.curs = append(ms.curs, c)
		total += r.nEdges
	}
	return ms, total, nil
}

func (m *mergeStream) next() (rawEdge, bool, error) {
	for {
		best := -1
		for i, c := range m.curs {
			if !c.ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := m.curs[best]
			if c.cur.s < b.cur.s || (c.cur.s == b.cur.s && c.cur.d < b.cur.d) {
				best = i
			}
		}
		if best < 0 {
			return rawEdge{}, false, nil
		}
		e := m.curs[best].cur
		if err := m.curs[best].advance(); err != nil {
			return rawEdge{}, false, err
		}
		if m.any && e == m.last {
			m.dups++
			continue
		}
		m.any = true
		m.last = e
		return e, true, nil
	}
}

func (m *mergeStream) close() {
	for _, c := range m.curs {
		c.close()
	}
}

// --- CSR construction -------------------------------------------------

// buildCSR consumes a sorted deduplicated edge stream, translating raw
// IDs through the compaction table into dense int32 page IDs and
// laying the adjacency down directly in CSR form. maxEdges sizes the
// target array's initial capacity (an upper bound; cross-run
// duplicates shrink it).
func buildCSR(ctx context.Context, s edgeStream, table []uint64, maxEdges int64) ([]int64, []webgraph.PageID, error) {
	n := len(table)
	if n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("ingest: %d nodes exceed the int32 page-ID space", n)
	}
	offsets := make([]int64, n+1)
	targets := make([]webgraph.PageID, 0, maxEdges)
	row := 0 // dense source whose list is being appended
	var (
		src   uint64 // the raw source ds translates
		ds    int
		known bool
	)
	for {
		if len(targets)%cancelCheckEdges == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		e, ok, err := s.next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		if !known || e.s != src {
			if ds, ok = lookupDense(table, e.s); !ok {
				return nil, nil, fmt.Errorf("ingest: edge source %d is not in the URL table's node set", e.s)
			}
			src, known = e.s, true
		}
		dd, ok := lookupDense(table, e.d)
		if !ok {
			return nil, nil, fmt.Errorf("ingest: edge target %d is not in the URL table's node set", e.d)
		}
		for row < ds {
			row++
			offsets[row] = int64(len(targets))
		}
		targets = append(targets, webgraph.PageID(dd))
	}
	for row < n {
		row++
		offsets[row] = int64(len(targets))
	}
	return offsets, targets, nil
}

// cancelCheckEdges is how many merged edges pass between two looks at
// the context.
const cancelCheckEdges = 1 << 16

// lookupDense returns raw's index in table, which is ascending and free
// of duplicates. It looks first where raw would sit if the IDs were
// spread evenly between the table's ends — exactly right when they are
// contiguous, a step or two off when a few are missing — and gallops
// from there to a bracket it bisects, so IDs hashed over 64 bits still
// cost no more than a binary search.
func lookupDense(table []uint64, raw uint64) (int, bool) {
	n := len(table)
	if n == 0 || raw < table[0] || raw > table[n-1] {
		return 0, false
	}
	span := table[n-1] - table[0]
	if span == 0 {
		return 0, true
	}
	// (raw-t0)*(n-1) can pass 64 bits; its high word is below span because
	// n-1 is below 2^64, which is what Div64 asks for, and the quotient is
	// at most n-1 because raw-t0 is at most span.
	hi, lo := bits.Mul64(raw-table[0], uint64(n-1))
	q, _ := bits.Div64(hi, lo, span)
	i := int(q)
	if table[i] == raw {
		return i, true
	}
	// Doubling steps away from the seed bracket raw: table[l] <= raw <=
	// table[r], the table's ends bounding the walk.
	l, r := i, i
	for step := 1; table[r] < raw; step <<= 1 {
		l, r = r, min(r+step, n-1)
	}
	for step := 1; table[l] > raw; step <<= 1 {
		l, r = max(l-step, 0), l
	}
	j, ok := slices.BinarySearch(table[l:r+1], raw)
	return l + j, ok
}
